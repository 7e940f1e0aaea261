"""Continuous-time control systems and reachable-set over-approximation.

A control system couples a nominal vector field with a box-bounded
additive disturbance and a finite input alphabet.  The reach box of a
cell over one sampling period (:func:`reach_boxes`) is its centre's
nominal end plus and minus a radius vector that obeys the linear growth
dynamics ``r' = L(u) r + w`` (:func:`radius_dynamics`), where ``L(u)`` is
a user-supplied growth matrix valid for the dynamics on the region of
interest and ``w`` is the disturbance bound.

A vector field binds one input per row, and every integrator binds it
that way, so a row's derivative must not depend on its batch: a state
integrated alone ends bit for bit where it ends in any batch.

A system may declare ``field_reads``, the state coordinates its nominal
field reads.  Every output component must then depend on those
coordinates only, so a coordinate it does not read (a free axis) ends
an RK4 step as its start value plus an increment that depends on the
read coordinates alone.  :func:`reach_boxes`, the integrator of
transition tables, integrates one centre per distinct value of the read
coordinates, and each free axis as a table of start values that add
their centre's increments: a free axis is integrated once per (start
value, centre).  Every value ends bit for bit where a lone state's
integration ends it.  A declaration that leaves out a coordinate the
field reads is unsound: states that differ in that coordinate would
move as their centre does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Piecewise-constant disturbance segments per sampling period used when
# simulating a disturbed trajectory.
DISTURBANCE_SEGMENTS = 10

# Rows of the batch on which construction checks that a vector field
# computes each row as it computes that row alone.  Two rows miss a batch
# matrix product that rounds a row unlike the row alone; 64 catch it.
PROBE_ROWS = 64


class IntegrationDivergenceError(RuntimeError):
    """Raised when a trajectory integration produces non-finite values."""


@dataclass
class ControlSystem:
    """Perturbed control system with a finite input alphabet.

    ``vector_field(u)`` binds one input per row, ``u`` ``(N, m)``, and
    returns the nominal field ``f(x)`` for states ``(N, n)``: the input is
    held over the whole sampling period, so integrators bind it once per
    integration, not at every RK4 stage.  ``f`` must compute each row from
    that row alone, so a run's result does not depend on its batch;
    construction binds a probe batch of at least ``PROBE_ROWS`` rows and
    raises ``ValueError`` unless every row equals, bit for bit, the same
    row bound alone.  Inputs are finite and share one shape.
    ``growth_matrix(u)`` returns a finite ``n x n`` matrix with
    non-negative off-diagonal entries; it must bound the sensitivity of
    the nominal dynamics on the region where the system is abstracted.

    ``field_reads`` names the state coordinates that every output
    component of ``f`` depends on, under every input; ``None`` means all
    of them.  States that agree bit for bit on those coordinates get
    bit-identical derivatives, so :func:`reach_boxes` integrates
    each distinct value once, and a coordinate left out (a free axis)
    once per (start value, representative).  A coordinate the field reads
    but the declaration leaves out makes reach boxes unsound, so
    construction binds the probe batch again with every undeclared
    coordinate moved to other values and raises ``ValueError`` unless the
    derivatives are bit-equal; the probe cannot see a read outside its
    states.  A declaration of every coordinate is stored as ``None``.
    """

    dim: int
    vector_field: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    disturbance: np.ndarray
    inputs: Sequence[np.ndarray]
    growth_matrix: Callable[[np.ndarray], np.ndarray]
    field_reads: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.field_reads is not None:
            reads = tuple(int(i) for i in self.field_reads)
            in_range = all(0 <= i < self.dim for i in reads)
            if not reads or not in_range or len(set(reads)) < len(reads):
                raise ValueError(
                    f"field_reads must name distinct coordinates in [0, {self.dim}), "
                    f"got {self.field_reads!r}"
                )
            self.field_reads = None if len(reads) == self.dim else reads
        w = np.atleast_1d(np.asarray(self.disturbance, dtype=float))
        if w.shape != (self.dim,):
            raise ValueError(f"disturbance must have shape ({self.dim},)")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("disturbance bound must be finite and non-negative")
        self.disturbance = w
        inputs = [np.atleast_1d(np.asarray(u, dtype=float)) for u in self.inputs]
        if not inputs:
            raise ValueError("input alphabet must be non-empty")
        if not all(np.all(np.isfinite(u)) for u in inputs):
            raise ValueError("input values must be finite")
        seen = set()
        for u in inputs:
            key = tuple(u.tolist())
            if key in seen:
                raise ValueError(f"duplicate input value {key}")
            seen.add(key)
        self.inputs = inputs
        for u in inputs:
            L = np.asarray(self.growth_matrix(u), dtype=float)
            if L.shape != (self.dim, self.dim):
                raise ValueError("growth matrix must be square of size dim")
            if not np.all(np.isfinite(L)) or np.any(L[~np.eye(self.dim, dtype=bool)] < 0.0):
                raise ValueError("growth matrix must be finite, off-diagonal entries >= 0")
        # Row i of the probe batch holds input i mod n_inputs; its states
        # are irregular values in [-1, 1].
        rows = max(PROBE_ROWS, len(inputs))
        us = np.stack(inputs)[np.arange(rows) % len(inputs)]
        probe = np.sin(np.arange(1, rows * self.dim + 1.0)).reshape(rows, self.dim)
        batch = np.asarray(self.vector_field(us)(probe), dtype=float)
        alone = np.concatenate([
            np.asarray(self.vector_field(us[i : i + 1])(probe[i : i + 1]), dtype=float)
            for i in range(rows)
        ])
        if batch.shape != probe.shape or alone.shape != probe.shape or not np.array_equal(
            batch.view(np.int64), alone.view(np.int64)
        ):
            raise ValueError(
                "vector_field must compute every row of a batch bit for bit as it "
                "computes that row alone"
            )
        if self.field_reads is not None:
            free = [i for i in range(self.dim) if i not in self.field_reads]
            moved = probe.copy()
            moved[:, free] = probe[::-1, free] + 2.0
            derivs = np.asarray(self.vector_field(us)(moved), dtype=float)
            if not np.array_equal(derivs.view(np.int64), batch.view(np.int64)):
                raise ValueError(f"field_reads {self.field_reads!r} leaves out a read coordinate")

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)


def _lengths(h):
    """``(h, h / 2, h / 6)``: the step lengths that :func:`_rk4` reads."""
    return h, 0.5 * h, h / 6.0


def _rk4(deriv, y: np.ndarray, lengths, steps: int, tables=()) -> None:
    """Advance ``y`` in place by ``steps`` classic Runge-Kutta-4 steps.

    ``lengths`` is :func:`_lengths` of a step length, a number or per-row
    lengths of the shape of ``y``.  A step rounds as ``y + h / 6 * (k1 + 2
    k2 + 2 k3 + k4)``, and derivatives are read only: ``deriv`` may return
    its argument or a view of it.  Each ``(table, at)`` of ``tables`` holds
    two arrays of one shape: every step adds to ``table`` in place the
    increments at the flat positions ``at`` of ``y``, as a state that shares
    those derivatives adds them on that coordinate.
    """
    h, half, sixth = lengths
    t, inc = np.empty_like(y), np.empty_like(y)
    for _ in range(steps):
        # Each derivative is read before ``t`` is written (it may be a view of it), then dropped.
        k1 = deriv(y)
        k = deriv(np.add(y, np.multiply(half, k1, t), t))
        np.add(np.add(k, k, inc), k1, inc)
        del k1
        k = deriv(np.add(y, np.multiply(half, k, t), t))
        inc += k + k
        np.add(y, np.multiply(h, k, t), t)
        del k
        inc += deriv(t)
        y += np.multiply(sixth, inc, inc)
        for table, at in tables:
            table += inc.take(at)


def radius_dynamics(sys: ControlSystem, u, r0, tau: float, substeps: int) -> np.ndarray:
    """Endpoint of the radius dynamics ``r' = L(u) r + w`` from ``r0``."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    L = np.asarray(sys.growth_matrix(u), dtype=float)
    r = np.array(r0, dtype=float)
    _rk4(lambda v: v @ L.T + sys.disturbance, r, _lengths(tau / substeps), substeps)
    if not np.all(np.isfinite(r)):
        raise IntegrationDivergenceError("non-finite radius while integrating growth dynamics")
    return r


def reach_boxes(sys: ControlSystem, centers, radius, inputs, tau: float, substeps: int, free=()):
    """Growth-bound reach boxes of cells under each input, in one sweep.

    ``centers`` ``(K, n)`` are cell centres whose read coordinates
    (``sys.field_reads``) differ.  ``radius`` is a cell's growth radius
    (:func:`radius_dynamics`) under each input, ``(len(inputs), n)``, or
    one ``(n,)`` for every input.  Each item of ``free`` is
    ``(axis, start, rep)``: a coordinate the field does not read, start
    values ``(P,)`` on it, and the centre ``(P,)`` of each entry.
    Entry ``p`` adds, at every RK4 step, the increment of
    ``centers[rep[p]]`` on that axis, so it ends bit for bit where a state
    that starts at ``start[p]`` on the axis, and agrees with
    ``centers[rep[p]]`` on the read coordinates, ends on it.

    Every input is integrated in one sweep that binds one input per row.
    Returns ``((lo, hi), tables)``: the box corners ``(len(inputs), K,
    n)``, each end centre minus and plus its input's radius, and one such
    pair ``(len(inputs), P)`` per item of ``free``, on its axis.
    """
    us = np.stack([np.atleast_1d(np.asarray(u, dtype=float)) for u in inputs])
    centers = np.asarray(centers, dtype=float)
    m, (k, n) = len(us), centers.shape
    # Input i's copy of centre r is row i * K + r of the sweep.
    block = np.arange(m)[:, None] * k
    tables = [np.tile(np.asarray(start, dtype=float), (m, 1)) for _, start, _ in free]
    at = [(block + rep) * n + axis for axis, _, rep in free]
    y = np.tile(centers, (m, 1))
    _rk4(sys.vector_field(np.repeat(us, k, axis=0)), y, _lengths(tau / substeps), substeps,
         list(zip(tables, at)))
    ends = y.reshape(m, k, n)
    if not (np.all(np.isfinite(ends)) and all(np.all(np.isfinite(t)) for t in tables)):
        raise IntegrationDivergenceError(f"non-finite state while integrating {k} cell centres")
    r = np.broadcast_to(np.asarray(radius, dtype=float), (m, n))
    boxes = [(t - r[:, [a]], t + r[:, [a]]) for (a, _, _), t in zip(free, tables)]
    return (ends - r[:, None], ends + r[:, None]), boxes


def sample_disturbed_step(
    sys: ControlSystem,
    x0,
    u,
    tau,
    draws,
    substeps=5,
) -> np.ndarray:
    """One disturbed sample-and-hold step of a state ``(n,)`` or of states ``(N, n)``.

    Every call steps a batch: a single state is a batch of one, and the
    input ``u``, the period ``tau`` and the substep count, each given once
    or per row (``(N, m)``, ``(N,)``, ``(N,)``), are broadcast to one per
    row, so runs on different layers and inputs advance in one call.

    The period is cut into ``DISTURBANCE_SEGMENTS`` equal segments of
    ``ceil(substeps / DISTURBANCE_SEGMENTS)`` RK4 steps each, and the
    disturbance is constant over a segment.  ``draws`` holds unit doubles
    in ``[0, 1)``, ``(DISTURBANCE_SEGMENTS, n)`` for a single state or
    ``(N, DISTURBANCE_SEGMENTS, n)`` for a batch: segment ``k`` of row
    ``i`` is disturbed by ``low + (high - low) * draws[i, k]`` on the
    disturbance box, which is how ``Generator.uniform`` maps them, so
    ``rng.random((DISTURBANCE_SEGMENTS, n))`` disturbs a state bit for bit
    like per-segment ``rng.uniform(-w, w)`` draws.  The rows are copied
    once, stable-sorted by step count, longest first, and stepped in place:
    in each segment all rows take the fewest steps together, and each
    larger count runs its extra steps on the prefix of rows that need them,
    the field bound once per prefix, its derivatives read only.  So every
    row takes the steps it would take alone.  With a zero disturbance bound
    each row takes exactly the nominal RK4 steps of its own period and
    substeps, and ``draws`` is not read.  Periods must be finite and
    positive and substep counts integers >= 1, not bools, or ``ValueError``
    is raised before any step.  Returns a fresh array shaped like ``x0``.
    """
    x = np.asarray(x0, dtype=float)
    n = x.shape[-1]
    rows = x.size // n
    tau, substeps = np.full(rows, tau, dtype=float), np.full(rows, substeps)
    if not ((tau > 0.0) & (tau < np.inf)).all():
        raise ValueError("tau must be finite and positive")
    if substeps.dtype.kind not in "iu" or (substeps < 1).any():
        raise ValueError(f"substeps must be integers >= 1, got {substeps!r}")
    disturbed = bool(sys.disturbance.any())
    segments = DISTURBANCE_SEGMENTS if disturbed else 1
    if disturbed:
        shape = x.shape[:-1] + (segments, n)
        if np.shape(draws) != shape:
            raise ValueError(f"draws must have shape {shape}, one block per state")
        draws = np.asarray(draws, dtype=float).reshape(rows, segments, n)
    steps = -(-substeps // segments)
    order = np.argsort(-steps, kind="stable")
    y, steps = x.reshape(rows, n)[order], steps[order]
    # Full width: same-shape products are faster than column broadcasts.
    lengths = _lengths((tau[order] / segments / steps).repeat(n).reshape(rows, n))
    u = np.full((rows, sys.inputs[0].size), u, dtype=float)[order]
    w = np.empty_like(y)  # each segment's disturbances in turn, scaled as it starts
    low, span = -sys.disturbance, sys.disturbance + sys.disturbance
    tiers, counts = [], sorted(set(steps.tolist()))
    for c, before in zip(counts, [0] + counts):
        k = int(np.count_nonzero(steps >= c))
        f = sys.vector_field(u[:k])
        deriv = (lambda z, f=f, w=w[:k]: f(z) + w) if disturbed else f
        tiers.append((y[:k], [a[:k] for a in lengths], deriv, c - before))
    del tau, substeps, u  # not needed while stepping
    for s in range(segments):
        if disturbed:
            np.multiply(span, draws[:, s].take(order, axis=0), w)
            w += low
        for yk, hk, deriv, count in tiers:
            _rk4(deriv, yk, hk, count)
    if not np.isfinite(y).all():
        raise IntegrationDivergenceError("non-finite state in disturbed simulation")
    out = np.empty_like(y)
    out[order] = y
    return out.reshape(x.shape)
