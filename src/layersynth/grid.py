"""Multi-layer grid covers of the region of interest.

Layer 1 is the finest grid; each coarser layer doubles the cell diameter
and the sampling period.  Cells are semi-open boxes ``[a, b)`` so the
cover is a true partition; indices are linearized with dimension 0
varying fastest, which matches numpy's Fortran order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Relative tolerance used to snap box corners onto grid lines before
# floor/ceil arithmetic; keeps successor enumeration stable when ODE
# endpoints land within rounding error of a cell boundary.
_SNAP_REL = 1e-9

# Rows formatted at a time by export_cellset_csv.
_CSV_ROWS = 1 << 12

# Most layer-1 cells a stack may have: the largest int32 cell index.
_MAX_CELLS = 2**31 - 1


class LayerMismatchError(ValueError):
    """Raised when a set operation mixes cell sets of different layers."""


class LayerStack:
    """Grid and time parameters of every abstraction layer."""

    def __init__(self, levels: int, eta1, tau1: float, y_lower, y_upper):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
        y_lower = np.atleast_1d(np.asarray(y_lower, dtype=float))
        y_upper = np.atleast_1d(np.asarray(y_upper, dtype=float))
        if eta1.ndim != 1 or eta1.size == 0 or not eta1.shape == y_lower.shape == y_upper.shape:
            raise ValueError("eta1 and region bounds must be non-empty vectors of one dimension")
        if not (np.all(np.isfinite(eta1)) and np.isfinite(tau1)
                and np.all(np.isfinite(y_lower)) and np.all(np.isfinite(y_upper))):
            raise ValueError("eta1, tau1 and region bounds must be finite")
        if np.any(eta1 <= 0.0):
            raise ValueError("eta1 must be positive in every dimension")
        if tau1 <= 0.0:
            raise ValueError("tau1 must be positive")
        if np.any(y_upper <= y_lower):
            raise ValueError("region of interest is empty")
        with np.errstate(over="ignore"):  # an infinite count is rejected next
            counts = (y_upper - y_lower) / eta1
        # Transition tables and controller files index layer-1 cells as int32.
        too_many = f"grid has more than {_MAX_CELLS} layer-1 cells"
        if not np.all(counts <= _MAX_CELLS):
            raise ValueError(too_many)
        rounded = np.rint(counts)
        if np.any(np.abs(counts - rounded) > 1e-6 * np.maximum(1.0, rounded)) or np.any(
            rounded < 1
        ):
            raise ValueError(
                "region extent must be an integer multiple of eta1 in every dimension"
            )
        if math.prod(int(c) for c in rounded) > _MAX_CELLS:
            raise ValueError(too_many)
        base = rounded.astype(np.int64)
        # Before 2**(levels-1) is computed, so a huge level count fails at once.
        if levels > int(base.min()).bit_length():
            raise ValueError(f"levels = {levels} needs 2**(levels-1) layer-1 cells on every axis")
        factor = 2 ** (levels - 1)
        if np.any(base % factor != 0):
            raise ValueError(
                f"layer-1 cell counts {base.tolist()} must be divisible by "
                f"2**(levels-1) = {factor} so every layer tiles the region exactly"
            )
        self.levels = levels
        self.eta1 = eta1
        self.tau1 = float(tau1)
        self.y_lower = y_lower
        self.y_upper = y_upper
        self.dim = eta1.size
        self.dims_per_layer = [base // (2 ** (l - 1)) for l in range(1, levels + 1)]
        self._strides = []
        for dims in self.dims_per_layer:
            s = np.ones(self.dim, dtype=np.int64)
            for i in range(1, self.dim):
                s[i] = s[i - 1] * dims[i - 1]
            self._strides.append(s)

    def _check_layer(self, layer: int) -> None:
        if not 1 <= layer <= self.levels:
            raise ValueError(f"layer {layer} out of range [1;{self.levels}]")

    def eta(self, layer: int) -> np.ndarray:
        self._check_layer(layer)
        return self.eta1 * (2 ** (layer - 1))

    def tau(self, layer: int) -> float:
        self._check_layer(layer)
        return self.tau1 * (2 ** (layer - 1))

    def dims(self, layer: int) -> np.ndarray:
        self._check_layer(layer)
        return self.dims_per_layer[layer - 1]

    def cell_count(self, layer: int) -> int:
        return int(np.prod(self.dims(layer)))

    def linearize(self, layer: int, index) -> np.ndarray:
        """Linear cell index with dimension 0 varying fastest."""
        idx = np.asarray(index, dtype=np.int64)
        return idx @ self._strides[layer - 1]

    def unlinearize(self, layer: int, linear) -> np.ndarray:
        linear = np.asarray(linear, dtype=np.int64)
        dims = self.dims(layer)
        out = np.empty(linear.shape + (self.dim,), dtype=np.int64)
        rem = linear
        for i in range(self.dim):
            out[..., i] = rem % dims[i]
            rem = rem // dims[i]
        return out

    def centers(self, layer: int, linear) -> np.ndarray:
        idx = self.unlinearize(layer, linear)
        eta = self.eta(layer)
        return self.y_lower + (idx + 0.5) * eta

    def quantize(self, x, layer: int) -> np.ndarray:
        """Linear index of the cell containing a point ``(n,)``, or of
        each row of ``(N, n)``; -1 outside the region.

        Cells are semi-open, so a point on the upper boundary of the
        region is out of domain; so is a point with a non-finite
        coordinate.
        """
        self._check_layer(layer)
        # Compared as floats, so no non-finite value is cast to int.
        q = np.floor((np.asarray(x, dtype=float) - self.y_lower) / self.eta(layer))
        inside = np.all((q >= 0) & (q < self.dims(layer)), axis=-1)
        # Only rows inside are cast, so a non-finite row raises no warning.
        index = np.where(inside[..., None], q, 0).astype(np.int64)
        return np.where(inside, self.linearize(layer, index), -1)

    def grid_coords(self, layer: int, coords, axis: int | None = None) -> np.ndarray:
        """Coordinates in grid units, snapped onto near-exact grid lines.

        ``coords`` are points ``(..., n)``, or values on ``axis`` alone.
        """
        at = slice(None) if axis is None else axis
        q = (np.asarray(coords, dtype=float) - self.y_lower[at]) / self.eta(layer)[at]
        qr = np.rint(q)
        snap = np.abs(q - qr) <= _SNAP_REL * np.maximum(1.0, np.abs(qr))
        return np.where(snap, qr, q)


class CellSet:
    """Dense bitset over the cells of one layer."""

    __slots__ = ("layer", "bits")

    def __init__(self, layer: int, bits: np.ndarray):
        self.layer = layer
        self.bits = bits

    @classmethod
    def empty(cls, stack: LayerStack, layer: int) -> "CellSet":
        return cls(layer, np.zeros(stack.cell_count(layer), dtype=bool))

    @classmethod
    def full(cls, stack: LayerStack, layer: int) -> "CellSet":
        return cls(layer, np.ones(stack.cell_count(layer), dtype=bool))

    @classmethod
    def from_indices(cls, stack: LayerStack, layer: int, linear) -> "CellSet":
        out = cls.empty(stack, layer)
        out.bits[np.asarray(linear, dtype=np.int64)] = True
        return out

    def _check(self, other: "CellSet") -> None:
        if self.layer != other.layer:
            raise LayerMismatchError(
                f"set operation mixes layers {self.layer} and {other.layer}"
            )
        if self.bits.size != other.bits.size:
            raise LayerMismatchError("cell sets come from different grids")

    def copy(self) -> "CellSet":
        return CellSet(self.layer, self.bits.copy())

    def union(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.layer, self.bits | other.bits)

    def intersect(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.layer, self.bits & other.bits)

    def difference(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.layer, self.bits & ~other.bits)

    def complement(self) -> "CellSet":
        return CellSet(self.layer, ~self.bits)

    def union_update(self, other: "CellSet") -> None:
        self._check(other)
        self.bits |= other.bits

    def is_subset(self, other: "CellSet") -> bool:
        self._check(other)
        return bool(np.all(~self.bits | other.bits))

    def is_empty(self) -> bool:
        return not bool(self.bits.any())

    def count(self) -> int:
        return int(self.bits.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.layer == other.layer and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):  # bitsets are mutable
        raise TypeError("CellSet is unhashable")

    def __repr__(self) -> str:
        return f"CellSet(layer={self.layer}, count={self.count()}/{self.bits.size})"


def _block_shape(dims, factor: int) -> list[int]:
    shape: list[int] = []
    for d in dims:
        shape.extend((factor, int(d)))
    return shape


def _refine(stack: LayerStack, src: CellSet, target_layer: int) -> CellSet:
    factor = 2 ** (src.layer - target_layer)
    dims_src = stack.dims(src.layer)
    out = np.zeros(stack.cell_count(target_layer), dtype=bool)
    view = out.reshape(_block_shape(dims_src, factor), order="F")
    coarse_shape = [x for d in dims_src for x in (1, int(d))]
    view[...] = src.bits.reshape(coarse_shape, order="F")
    return CellSet(target_layer, out)


def _gamma(stack: LayerStack, src: CellSet, target_layer: int, require_all: bool) -> CellSet:
    """Move ``src`` to ``target_layer``: refine toward finer layers;
    toward coarser ones keep a cell if all (``require_all``) or any of
    its sub-cells belong to ``src``."""
    stack._check_layer(target_layer)
    stack._check_layer(src.layer)
    if target_layer == src.layer:
        return src.copy()
    if target_layer < src.layer:
        return _refine(stack, src, target_layer)
    # One doubling at a time: combine the 2^dim strided corner slices.
    # Dimension 0 varies fastest, so the C-order view reverses the axes.
    combine = np.logical_and if require_all else np.logical_or
    bits = src.bits
    for layer in range(src.layer + 1, target_layer + 1):
        fine = bits.reshape([2 * int(d) for d in reversed(stack.dims(layer))])
        corners = [
            fine[tuple(slice(o, None, 2) for o in offsets)]
            for offsets in itertools.product((0, 1), repeat=stack.dim)
        ]
        bits = corners[0].copy()
        for corner in corners[1:]:
            combine(bits, corner, out=bits)
        bits = bits.ravel()
    return CellSet(target_layer, bits)


def gamma_down(stack: LayerStack, src: CellSet, target_layer: int) -> CellSet:
    """Under-approximate ``src`` with cells of ``target_layer``.

    Toward a finer layer this is the refinement image; toward a coarser
    layer only cells all of whose sub-cells belong to ``src`` survive.
    """
    return _gamma(stack, src, target_layer, require_all=True)


def gamma_up(stack: LayerStack, src: CellSet, target_layer: int) -> CellSet:
    """Over-approximate ``src`` with cells of ``target_layer``.

    Identical to :func:`gamma_down` toward finer layers; toward coarser
    layers every cell intersecting ``src`` is kept.
    """
    return _gamma(stack, src, target_layer, require_all=False)


def _slab(stack: LayerStack, layer: int, j_min: np.ndarray, j_max: np.ndarray) -> CellSet:
    dims = stack.dims(layer)
    out = CellSet.empty(stack, layer)
    j_min = np.maximum(j_min, 0)
    j_max = np.minimum(j_max, dims - 1)
    if np.any(j_min > j_max):
        return out
    view = out.bits.reshape(tuple(int(d) for d in dims), order="F")
    view[tuple(slice(int(a), int(b) + 1) for a, b in zip(j_min, j_max))] = True
    return out


def _box_coords(stack: LayerStack, layer: int, lower, upper):
    """Grid coordinates of a box's corners.  A box may extend past the
    region, to infinity too: its corners are clipped to the region
    widened by one cell, which keeps the cells it meets and adds none."""
    eta = stack.eta(layer)
    lo, hi = stack.y_lower - eta, stack.y_upper + eta
    return (stack.grid_coords(layer, np.clip(corner, lo, hi)) for corner in (lower, upper))


def cells_inside_box(stack: LayerStack, layer: int, lower, upper) -> CellSet:
    """Cells whose closure lies inside the closed box ``[lower, upper]``."""
    q_lo, q_hi = _box_coords(stack, layer, lower, upper)
    j_min = np.ceil(q_lo).astype(np.int64)
    j_max = np.floor(q_hi).astype(np.int64) - 1
    return _slab(stack, layer, j_min, j_max)


def cells_intersecting_box(stack: LayerStack, layer: int, lower, upper) -> CellSet:
    """Cells whose semi-open box meets the closed box ``[lower, upper]``.

    A box whose corner lands exactly on a grid line touches the cell on
    the far side of the line.
    """
    q_lo, q_hi = _box_coords(stack, layer, lower, upper)
    j_min = np.floor(q_lo).astype(np.int64)
    j_max = np.floor(q_hi).astype(np.int64)
    return _slab(stack, layer, j_min, j_max)


def export_cellset_csv(stack: LayerStack, cells: CellSet, path) -> None:
    """Write one row per set cell: layer, index components, cell center.

    A cell's index and center on one axis depend only on its index on
    that axis, so each axis value is formatted once, as ``str`` of the
    index and ``repr`` of the center, and rows join the looked-up text.
    """
    idx = stack.unlinearize(cells.layer, cells.indices())
    eta = stack.eta(cells.layer)
    index_text, center_text = [], []
    for a, size in enumerate(stack.dims(cells.layer).tolist()):
        values = np.flatnonzero(np.bincount(idx[:, a], minlength=size))
        centers = stack.y_lower[a] + (values + 0.5) * eta[a]
        index_text.append(dict(zip(values.tolist(), map(str, values.tolist()))))
        center_text.append(dict(zip(values.tolist(), map(repr, centers.tolist()))))
    tables = index_text + center_text
    header = ["layer"] + [f"{name}{a}" for name in ("idx", "center") for a in range(stack.dim)]
    lead = f"{cells.layer},"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        # In chunks, so the Python rows of a large set never all live at once.
        for start in range(0, len(idx), _CSV_ROWS):
            axes = idx[start : start + _CSV_ROWS].T.tolist()
            columns = [list(map(t.__getitem__, col)) for t, col in zip(tables, axes + axes)]
            fh.write("".join([lead + ",".join(row) + "\n" for row in zip(*columns)]))
