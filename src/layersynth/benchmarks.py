"""Built-in benchmark systems and their shipped problem configurations.

Each benchmark registers a fully parameterized control system with a
documented growth matrix.  Desk-scale configurations run in seconds and
back the test suite; the finer paper-scale grids are included for
completeness and take far longer.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem


def dcdc(params: dict | None = None) -> ControlSystem:
    """Boost converter with two switching modes.

    Linear dynamics ``x' = A_p x + b`` per mode ``p`` plus a small box
    disturbance; the growth matrix of a linear mode is the mode matrix
    with off-diagonal entries replaced by their absolute values.
    """
    p = {
        "r0": 1.0,
        "vs": 1.0,
        "rl": 0.05,
        "xl": 3.0,
        "xc": 70.0,
        "disturbance": [0.001, 0.001],
    }
    p.update(params or {})
    r0, vs, rl, xl, xc = p["r0"], p["vs"], p["rl"], p["xl"], p["xc"]
    rc = p.get("rc", 0.5 * rl)
    a1 = np.array(
        [
            [-rl / xl, 0.0],
            [0.0, -(1.0 / xc) * (r0 / (r0 + rc))],
        ]
    )
    a2 = np.array(
        [
            [-(1.0 / xl) * (rl + r0 * rc / (r0 + rc)), (1.0 / 5.0) * (-(1.0 / xl) * (r0 / (r0 + rc)))],
            [5.0 * (r0 / (r0 + rc)) * (1.0 / xc), -(1.0 / xc) * (1.0 / (r0 + rc))],
        ]
    )
    b = np.array([vs / xl, 0.0])
    # Keyed by the exact input values of ``inputs`` below.
    modes = {1.0: a1, 2.0: a2}
    keys = np.array(list(modes))
    # Per mode, in the order of ``keys``: (a_00, a_11), (a_01, a_10) and b.
    diag, off = (np.stack([np.diag(a[:, ::s]) for a in modes.values()]) for s in (1, -1))
    bias, swap = np.stack([b for _ in modes]), np.array([1, 0])

    def field(u):
        # Each row is computed from itself alone: a matrix product may
        # round a batch row unlike the same row alone.
        u = np.asarray(u, dtype=float)
        match = u[:, :1] == keys
        known = match.any(axis=1)
        if not known.all():
            raise KeyError(f"unknown dcdc input {u[~known][0].tolist()}")
        mode = match.argmax(axis=1)
        d, o, c = diag[mode], off[mode], bias[mode]
        # Same-shape operands beat broadcasts; output i sums the column form's products.
        return lambda x: x * d + x.take(swap, axis=1) * o + c

    def growth(u):
        a = modes[u[0]]
        return np.where(np.eye(2, dtype=bool), a, np.abs(a))

    return ControlSystem(
        dim=2,
        vector_field=field,
        disturbance=np.asarray(p["disturbance"], dtype=float),
        inputs=[np.array([1.0]), np.array([2.0])],
        growth_matrix=growth,
    )


def unicycle(params: dict | None = None) -> ControlSystem:
    """Planar unicycle: position driven by speed and heading, heading by
    the turn rate.  Position channels carry the disturbance; the heading
    is exact.  Only the heading column of the growth matrix is non-zero,
    bounded by the speed input.  The field reads the heading alone, so
    cells that share a heading share their integration.
    """
    p = {
        "disturbance": [0.05, 0.05, 0.0],
        "speeds": [0.5, 1.0],
        "turn_rates": [-1.0, -0.5, 0.0, 0.5, 1.0],
    }
    p.update(params or {})

    def field(u):
        u = np.asarray(u, dtype=float)
        speed, turn = u[..., 0], u[..., 1]

        def f(x):
            x = np.asarray(x, dtype=float)
            theta = x[..., 2]
            out = np.empty_like(x)
            out[..., 0] = speed * np.cos(theta)
            out[..., 1] = speed * np.sin(theta)
            out[..., 2] = turn
            return out

        return f

    def growth(u):
        s = abs(float(u[0]))
        return np.array([[0.0, 0.0, s], [0.0, 0.0, s], [0.0, 0.0, 0.0]])

    inputs = [
        np.array([s, w]) for s in p["speeds"] for w in p["turn_rates"]
    ]
    return ControlSystem(
        dim=3,
        vector_field=field,
        disturbance=np.asarray(p["disturbance"], dtype=float),
        inputs=inputs,
        growth_matrix=growth,
        field_reads=(2,),
    )


REGISTRY = {"dcdc": dcdc, "unicycle": unicycle}


def build_system(name: str, params: dict | None = None) -> ControlSystem:
    """The registered system ``name``; ``KeyError`` only for an unknown name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}; registered: {sorted(REGISTRY)}")
    return REGISTRY[name](params)


# The unicycle obstacle layout: a wall split by a gap three fine cells
# wide.  Every coarse-layer cell row across the gap touches a wall box,
# so only the finest layer can thread it; the open halves on either
# side stay winnable with coarse cells.
_UNICYCLE_DESK = {
    "benchmark": "unicycle",
    "spec": "reach-avoid",
    "layers": 3,
    "eta1": [0.2, 0.2, 0.2],
    "tau1": 0.225,
    "y_lower": [0.0, 0.0, -3.2],
    "y_upper": [6.4, 6.4, 3.2],
    "obstacle_boxes": [
        {"lower": [2.2, 0.0, -3.2], "upper": [2.6, 2.75, 3.2]},
        {"lower": [2.2, 3.45, -3.2], "upper": [2.6, 6.4, 3.2]},
    ],
    "target_boxes": [{"lower": [4.8, 2.4, -3.2], "upper": [6.4, 4.0, 3.2]}],
    "algorithm": "lazy-reach",
    "m": 2,
    "substeps": 5,
}

_UNICYCLE_PAPER = {
    **_UNICYCLE_DESK,
    "eta1": [0.1, 0.1, 0.1],
    "tau1": 0.1125,
}

_DCDC_DESK = {
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

_DCDC_PAPER = {
    **_DCDC_DESK,
    "eta1": [0.0005, 0.0005],
    "tau1": 0.0625,
    "layers": 6,
}

DEFAULT_CONFIGS = {
    "dcdc-desk": _DCDC_DESK,
    "dcdc-paper": _DCDC_PAPER,
    "unicycle-desk": _UNICYCLE_DESK,
    "unicycle-paper": _UNICYCLE_PAPER,
}


def default_config(name: str) -> dict:
    try:
        return dict(DEFAULT_CONFIGS[name])
    except KeyError:
        raise KeyError(
            f"unknown configuration {name!r}; shipped: {sorted(DEFAULT_CONFIGS)}"
        ) from None
