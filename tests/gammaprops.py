"""Reusable property checks for the inter-layer set transformers.

Imported by both the unit tests and the acceptance suite; every check
raises AssertionError with context on failure.
"""

from __future__ import annotations

import numpy as np

from layersynth import CellSet, LayerStack, gamma_down, gamma_up


def random_cellset(stack: LayerStack, layer: int, rng: np.random.Generator) -> CellSet:
    density = rng.uniform(0.0, 1.0)
    bits = rng.random(stack.cell_count(layer)) < density
    return CellSet(layer, bits)


def _ops():
    return (("down", gamma_down), ("up", gamma_up))


def check_composition(stack: LayerStack, rng: np.random.Generator) -> None:
    L = stack.levels
    src_l = int(rng.integers(1, L + 1))
    tgt_l = int(rng.integers(1, L + 1))
    lo, hi = min(src_l, tgt_l), max(src_l, tgt_l)
    a = random_cellset(stack, src_l, rng)
    for name, op in _ops():
        direct = op(stack, a, tgt_l)
        for k in range(lo, hi + 1):
            via = op(stack, op(stack, a, k), tgt_l)
            assert via == direct, f"gamma_{name} composition broke via layer {k}"


def check_monotonicity(stack: LayerStack, rng: np.random.Generator) -> None:
    src_l = int(rng.integers(1, stack.levels + 1))
    tgt_l = int(rng.integers(1, stack.levels + 1))
    a = random_cellset(stack, src_l, rng)
    b = a.union(random_cellset(stack, src_l, rng))
    for name, op in _ops():
        assert op(stack, a, tgt_l).is_subset(op(stack, b, tgt_l)), (
            f"gamma_{name} is not monotone {src_l}->{tgt_l}"
        )


def check_distribution_fine(stack: LayerStack, rng: np.random.Generator) -> None:
    """Toward finer layers both transformers distribute over union/intersection."""
    src_l = int(rng.integers(1, stack.levels + 1))
    tgt_l = int(rng.integers(1, src_l + 1))
    a = random_cellset(stack, src_l, rng)
    b = random_cellset(stack, src_l, rng)
    for name, op in _ops():
        assert op(stack, a.union(b), tgt_l) == op(stack, a, tgt_l).union(op(stack, b, tgt_l))
        assert op(stack, a.intersect(b), tgt_l) == op(stack, a, tgt_l).intersect(
            op(stack, b, tgt_l)
        ), f"gamma_{name} does not distribute over intersection"


def check_down_up_agree_fine(stack: LayerStack, rng: np.random.Generator) -> None:
    src_l = int(rng.integers(1, stack.levels + 1))
    tgt_l = int(rng.integers(1, src_l + 1))
    a = random_cellset(stack, src_l, rng)
    assert gamma_down(stack, a, tgt_l) == gamma_up(stack, a, tgt_l)


def check_round_trip(stack: LayerStack, rng: np.random.Generator) -> None:
    """Refining then coarsening (either way) restores the original set."""
    src_l = int(rng.integers(1, stack.levels + 1))
    tgt_l = int(rng.integers(1, src_l + 1))
    a = random_cellset(stack, src_l, rng)
    fine = gamma_down(stack, a, tgt_l)
    assert gamma_down(stack, fine, src_l) == a
    assert gamma_up(stack, fine, src_l) == a


def check_point_transfer(stack: LayerStack, rng: np.random.Generator) -> None:
    """Cell membership transfers along the quantizer between layers.

    If the layer-l' cell of a point is in A, the coarser layer-l cell is
    in the over-approximation of A; if the layer-l cell of a point is in
    the under-approximation, the layer-l' cell is in A.
    """
    lo = int(rng.integers(1, stack.levels + 1))
    hi = int(rng.integers(lo, stack.levels + 1))
    a_fine = random_cellset(stack, lo, rng)
    a_fine_up = gamma_up(stack, a_fine, hi)
    a_coarse = random_cellset(stack, hi, rng)
    a_coarse_down = gamma_down(stack, a_coarse, lo)
    span = stack.y_upper - stack.y_lower
    for _ in range(32):
        x = stack.y_lower + rng.uniform(0.0, 1.0, size=stack.dim) * span * 0.999999
        lin_f = int(stack.quantize(x, lo))
        lin_c = int(stack.quantize(x, hi))
        assert lin_f >= 0 and lin_c >= 0
        if a_fine.bits[lin_f]:
            assert a_fine_up.bits[lin_c], "over-approximation lost a covered point"
        if a_coarse_down.bits[lin_f]:
            assert a_coarse.bits[lin_c], "under-approximation contains an uncovered point"


def check_duality(stack: LayerStack, rng: np.random.Generator) -> None:
    """Two-sided duality: down(A') >= A_l iff A' >= up(A_l)."""
    l = int(rng.integers(1, stack.levels + 1))
    lp = int(rng.integers(1, stack.levels + 1))
    a_lp = random_cellset(stack, lp, rng)
    a_l = random_cellset(stack, l, rng)
    lhs = a_l.is_subset(gamma_down(stack, a_lp, l))
    rhs = gamma_up(stack, a_l, lp).is_subset(a_lp)
    assert lhs == rhs, f"duality failed between layers {l} and {lp}"


def check_one_way_implications(stack: LayerStack, rng: np.random.Generator) -> tuple[bool, bool]:
    """The fine/coarse containment implications hold one way only.

    Returns flags telling whether this draw witnessed strictness of each
    converse (callers accumulate until both witnesses appear).
    """
    assert stack.levels >= 2
    l = int(rng.integers(1, stack.levels))
    lp = int(rng.integers(l + 1, stack.levels + 1))
    a_lp = random_cellset(stack, lp, rng)
    a_l = random_cellset(stack, l, rng)

    # finer target: down(A_lp) <= A_l implies A_lp <= up(A_l)
    if gamma_down(stack, a_lp, l).is_subset(a_l):
        assert a_lp.is_subset(gamma_up(stack, a_l, lp)), (
            "containment implication toward the finer layer failed"
        )
    witness_a = a_lp.is_subset(gamma_up(stack, a_l, lp)) and not gamma_down(
        stack, a_lp, l
    ).is_subset(a_l)

    # coarser target: A_l <= up(A_lp) implies down(A_l) <= A_lp  (swapped roles)
    b_l = random_cellset(stack, l, rng)
    b_lp = random_cellset(stack, lp, rng)
    if b_l.is_subset(gamma_up(stack, b_lp, l)):
        assert gamma_down(stack, b_l, lp).is_subset(b_lp), (
            "containment implication toward the coarser layer failed"
        )
    witness_b = gamma_down(stack, b_l, lp).is_subset(b_lp) and not b_l.is_subset(
        gamma_up(stack, b_lp, l)
    )
    return witness_a, witness_b
