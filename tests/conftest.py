"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from layersynth import (
    ControlSystem,
    LayerStack,
    ProblemSpec,
    TransitionTable,
)
from layersynth.problem import REACH_AVOID, SAFETY

# Property tests draw the same examples on every run and have no
# per-example deadline, so a slow host cannot turn them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# The dcdc-safe benchmark workload as a config document: 6,400 layer-1
# cells on 3 layers; it wins 5,393 cells in well under a second.
DCDC_SAFE = {
    "benchmark": "dcdc",
    "spec": "safe",
    "layers": 3,
    "eta1": [0.005, 0.005],
    "tau1": 0.5,
    "y_lower": [1.15, 5.45],
    "y_upper": [1.55, 5.85],
    "algorithm": "lazy-safe",
    "m": 2,
    "substeps": 5,
}

# The unicycle-lazy benchmark workload as a config document: a 32x32x32
# layer-1 grid on 3 layers.
_OBSTACLE = {"lower": [2.2, 0.0, -3.2], "upper": [2.6, 2.75, 3.2]}
UNICYCLE_LAZY = {
    "benchmark": "unicycle",
    "spec": "reach-avoid",
    "layers": 3,
    "eta1": [0.2, 0.2, 0.2],
    "tau1": 0.45,
    "y_lower": [0.0, 0.0, -3.2],
    "y_upper": [6.4, 6.4, 3.2],
    "obstacle_boxes": [_OBSTACLE, {**_OBSTACLE, "lower": [2.2, 3.45, -3.2],
                                   "upper": [2.6, 6.4, 3.2]}],
    "target_boxes": [{"lower": [4.8, 2.4, -3.2], "upper": [6.4, 4.0, 3.2]}],
    "algorithm": "lazy-reach",
}


def stationary_system(dim: int = 2, n_inputs: int = 1) -> ControlSystem:
    """Zero dynamics, zero disturbance: every cell self-loops."""
    zero = np.zeros((dim, dim))
    return ControlSystem(
        dim=dim,
        vector_field=lambda x, u: np.zeros_like(np.asarray(x, dtype=float)),
        disturbance=np.zeros(dim),
        inputs=[np.array([float(k)]) for k in range(n_inputs)],
        growth_matrix=lambda u: zero,
        name="stationary",
    )


def drift_system(velocity=1.0, dim: int = 1) -> ControlSystem:
    """Constant drift, exact growth bound zero."""
    v = np.full(dim, float(velocity))
    zero = np.zeros((dim, dim))
    return ControlSystem(
        dim=dim,
        vector_field=lambda x, u: np.broadcast_to(v, np.asarray(x, dtype=float).shape).copy(),
        disturbance=np.zeros(dim),
        inputs=[np.array([0.0])],
        growth_matrix=lambda u: zero,
        name="drift",
    )


def linear_system(a, offsets, disturbance, name="linear") -> ControlSystem:
    """x' = A x + b_u with the standard linear growth matrix."""
    a = np.asarray(a, dtype=float)
    offsets = [np.asarray(b, dtype=float) for b in offsets]
    growth = np.diag(np.diag(a)) + np.abs(a - np.diag(np.diag(a)))

    def field(x, u):
        b = offsets[int(round(u[0]))]
        return np.asarray(x, dtype=float) @ a.T + b

    return ControlSystem(
        dim=a.shape[0],
        vector_field=field,
        disturbance=np.asarray(disturbance, dtype=float),
        inputs=[np.array([float(k)]) for k in range(len(offsets))],
        growth_matrix=lambda u: growth,
        name=name,
    )


def chain_table(stack: LayerStack) -> TransitionTable:
    """Hand-built 1-D drift chain on a 5-cell grid: i -> {i+1, i+2}."""
    sys = drift_system()
    table = TransitionTable(sys, stack, 1)
    for cell in range(4):
        succ = [c for c in (cell + 1, cell + 2) if c < 5]
        table.preload(cell, [np.asarray(succ, dtype=np.int64)])
    table.preload(4, [None])
    return table


@pytest.fixture
def chain_stack() -> LayerStack:
    return LayerStack(1, [1.0], 1.0, [0.0], [5.0])


@pytest.fixture
def square_stack() -> LayerStack:
    """4x4 layer-1 grid with a 2x2 layer 2."""
    return LayerStack(2, [1.0, 1.0], 0.5, [0.0, 0.0], [4.0, 4.0])


def random_stack(rng: np.random.Generator, levels: int, dim: int = 2) -> LayerStack:
    factor = 2 ** (levels - 1)
    counts = factor * rng.integers(2, 5, size=dim)
    eta = rng.uniform(0.1, 0.6, size=dim)
    lower = rng.uniform(-2.0, 2.0, size=dim)
    return LayerStack(levels, eta, 0.25, lower, lower + counts * eta)


# (levels, seed) of the random problems swept for both kinds.
SWEEP = [(levels, seed) for levels in (2, 3) for seed in range(40)]


def random_problem(seed: int, kind: str = REACH_AVOID, levels: int = 2):
    """Random 2-D linear system with a random reach-avoid/safety layout.

    Instances are small enough that eager, lazy and single-layer runs
    all finish in well under a second.
    """
    rng = np.random.default_rng(seed)
    dim = 2
    factor = 2 ** (levels - 1)
    counts = factor * rng.integers(2, 4, size=dim) * 2
    eta = np.full(dim, 0.25)
    lower = np.zeros(dim)
    upper = counts * eta
    stack = LayerStack(levels, eta, float(rng.uniform(0.25, 0.5)), lower, upper)

    a = rng.uniform(-0.6, 0.6, size=(dim, dim))
    n_u = int(rng.integers(2, 4))
    angles = rng.uniform(0.0, 2 * np.pi, size=n_u)
    speed = rng.uniform(0.4, 1.2)
    offsets = [speed * np.array([np.cos(t), np.sin(t)]) for t in angles]
    sys = linear_system(a, offsets, rng.uniform(0.0, 0.03, size=dim), name=f"rand{seed}")

    extent = upper - lower
    boxes = []
    for _ in range(int(rng.integers(0, 3))):
        blo = lower + rng.uniform(0.0, 0.7, size=dim) * extent
        bhi = blo + rng.uniform(0.1, 0.35, size=dim) * extent
        boxes.append((blo, np.minimum(bhi, upper)))
    if kind == REACH_AVOID:
        tlo = lower + rng.uniform(0.0, 0.5, size=dim) * extent
        thi = tlo + rng.uniform(0.2, 0.5, size=dim) * extent
        spec = ProblemSpec(
            kind=REACH_AVOID,
            obstacle_boxes=boxes,
            target_boxes=[(tlo, np.minimum(thi, upper))],
        )
    else:
        spec = ProblemSpec(kind=SAFETY, obstacle_boxes=boxes)
    return sys, stack, spec
