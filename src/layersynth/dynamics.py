"""Continuous-time control systems and reachable-set over-approximation.

A control system couples a nominal vector field with a box-bounded
additive disturbance and a finite input alphabet.  Reachable sets of
boxes over one sampling period are over-approximated by integrating the
nominal dynamics from the box center together with a radius vector that
obeys the linear growth dynamics ``r' = L(u) r + w``, where ``L(u)`` is a
user-supplied growth matrix valid for the dynamics on the region of
interest and ``w`` is the disturbance bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Piecewise-constant disturbance segments per sampling period used when
# simulating a disturbed trajectory.
DISTURBANCE_SEGMENTS = 10


class IntegrationDivergenceError(RuntimeError):
    """Raised when a trajectory integration produces non-finite values."""


@dataclass
class ControlSystem:
    """Perturbed control system with a finite input alphabet.

    ``vector_field(x, u)`` must accept states of shape ``(n,)`` or
    ``(N, n)`` (broadcasting over the leading axis) and return the same
    shape.  ``growth_matrix(u)`` returns an ``n x n`` matrix with
    non-negative off-diagonal entries; it must bound the sensitivity of
    the nominal dynamics on the region where the system is abstracted.
    """

    dim: int
    vector_field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    disturbance: np.ndarray
    inputs: Sequence[np.ndarray]
    growth_matrix: Callable[[np.ndarray], np.ndarray]
    name: str = field(default="system")

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        w = np.atleast_1d(np.asarray(self.disturbance, dtype=float))
        if w.shape != (self.dim,):
            raise ValueError(f"disturbance must have shape ({self.dim},)")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("disturbance bound must be finite and non-negative")
        self.disturbance = w
        inputs = [np.atleast_1d(np.asarray(u, dtype=float)) for u in self.inputs]
        if not inputs:
            raise ValueError("input alphabet must be non-empty")
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
            off = L - np.diag(np.diag(L))
            if np.any(off < 0.0):
                raise ValueError("growth matrix off-diagonal entries must be >= 0")

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)


def _rk4(deriv, y0: np.ndarray, tau: float, steps: int) -> np.ndarray:
    """Classic fixed-step Runge-Kutta-4 over ``[0, tau]``."""
    h = tau / steps
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def integrate_nominal(sys: ControlSystem, x0, u, tau: float, substeps: int) -> np.ndarray:
    """Endpoint of the nominal trajectory from ``x0`` under constant input."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = _rk4(lambda y: sys.vector_field(y, u), np.asarray(x0, dtype=float), tau, substeps)
    if not np.all(np.isfinite(x)):
        raise IntegrationDivergenceError(
            f"non-finite state while integrating from {np.asarray(x0)} with input {u}"
        )
    return x


def radius_dynamics(sys: ControlSystem, u, r0, tau: float, substeps: int) -> np.ndarray:
    """Endpoint of the radius dynamics ``r' = L(u) r + w`` from ``r0``."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    L = np.asarray(sys.growth_matrix(u), dtype=float)
    w = sys.disturbance
    r = _rk4(lambda r: r @ L.T + w, np.asarray(r0, dtype=float), tau, substeps)
    if not np.all(np.isfinite(r)):
        raise IntegrationDivergenceError("non-finite radius while integrating growth dynamics")
    return r


def reach_boxes(
    sys: ControlSystem,
    centers: np.ndarray,
    radius: np.ndarray,
    u,
    tau: float,
    substeps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched reach-box computation for identically sized cells.

    ``centers`` has shape ``(N, n)``; all cells share ``radius``, the
    :func:`radius_dynamics` endpoint from their half-width under ``u``.
    Returns lower and upper corners of the over-approximating boxes.
    """
    c = integrate_nominal(sys, centers, u, tau, substeps)
    return c - radius, c + radius


def sample_disturbed_step(
    sys: ControlSystem,
    x0,
    u,
    tau: float,
    rng,
    substeps: int = 5,
) -> np.ndarray:
    """One disturbed sample-and-hold step of a state ``(n,)`` or of states ``(N, n)``.

    The disturbance is piecewise constant over ``DISTURBANCE_SEGMENTS``
    equal sub-intervals, each drawn uniformly from the disturbance box.
    A single state takes one generator (or seed) ``rng``; a batch takes
    one per row, and each row draws its own ``(DISTURBANCE_SEGMENTS, n)``
    block from it, so its draws do not depend on the other rows.  The
    blocks are drawn as unit doubles and mapped onto the box in one
    affine step, ``low + (high - low) * v``, which is how
    ``Generator.uniform`` maps them: each row's stream is bit for bit
    that of per-segment ``rng.uniform(-w, w)`` draws.  Deterministic for
    fixed seeds.  With a zero disturbance bound this is exactly
    ``integrate_nominal`` and draws nothing.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if not np.any(sys.disturbance > 0.0):
        return integrate_nominal(sys, x0, u, tau, substeps)
    x = np.asarray(x0, dtype=float)
    rngs = [rng] if x.ndim == 1 else rng
    if len(rngs) != len(np.atleast_2d(x)):
        raise ValueError("a batch of states needs one generator per row")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shape = (DISTURBANCE_SEGMENTS, sys.dim)
    w = np.stack([np.random.default_rng(r).random(shape) for r in rngs], axis=-2)
    low = -sys.disturbance
    w *= sys.disturbance - low
    w += low
    if x.ndim == 1:
        w = w[:, 0]
    seg_tau = tau / DISTURBANCE_SEGMENTS
    seg_steps = max(1, -(-substeps // DISTURBANCE_SEGMENTS))
    for k in range(DISTURBANCE_SEGMENTS):
        wk = w[k]
        x = _rk4(lambda y: sys.vector_field(y, u) + wk, x, seg_tau, seg_steps)
    if not np.all(np.isfinite(x)):
        raise IntegrationDivergenceError("non-finite state in disturbed simulation")
    return x
