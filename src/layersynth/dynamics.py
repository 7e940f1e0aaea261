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

    ``vector_field(u)`` binds a held input and returns the nominal field
    ``f(x)`` under it: the input is held over the whole sampling period,
    so integrators bind it once per integration, not at every RK4 stage.
    ``u`` is one input ``(m,)``, for states ``(n,)`` or ``(N, n)``
    (broadcasting over the leading axis), or one input per row
    ``(N, m)``, for states ``(N, n)``; ``f`` returns the shape of its
    states.  A per-row field must compute each row from that row alone,
    so a run's result does not depend on its batch.
    ``growth_matrix(u)`` returns an ``n x n`` matrix with non-negative
    off-diagonal entries; it must bound the sensitivity of the nominal
    dynamics on the region where the system is abstracted.
    """

    dim: int
    vector_field: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
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


def _rk4(deriv, y: np.ndarray, h, steps: int) -> np.ndarray:
    """``steps`` classic Runge-Kutta-4 steps of length ``h`` from ``y``.

    ``h`` is a number, or per-row lengths of the shape of ``y``.
    """
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + half * k1)
        k3 = deriv(y + half * k2)
        k4 = deriv(y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _integrate(sys: ControlSystem, x: np.ndarray, u, h, steps, w=None) -> np.ndarray:
    """RK4 of the states ``x`` under the held input(s) ``u``, in place.

    There are ``len(w)`` segments, or one without ``w``; segment ``k``
    adds ``w[k]`` to the field and takes ``steps`` steps of length ``h``.
    Per-row ``steps`` ``(N,)`` must descend, with ``h`` ``(N, n)``: all
    rows take the fewest steps together, and each larger step count runs
    its extra steps on the prefix of rows that need them.  The field is
    bound once per prefix.
    """
    if np.ndim(steps) == 0:
        tiers = [(slice(None), int(steps))]
    else:
        counts = sorted(set(steps.tolist()))
        tiers = [(slice(int(np.count_nonzero(steps >= c))), c) for c in counts]
    fields = [sys.vector_field(u[rows] if np.ndim(u) == 2 else u) for rows, _ in tiers]
    for k in range(1 if w is None else len(w)):
        done = 0
        for (rows, count), f in zip(tiers, fields):
            deriv = f
            if w is not None:
                wk = w[k][rows]
                deriv = lambda y, f=f, wk=wk: f(y) + wk
            x[rows] = _rk4(deriv, x[rows], h[rows] if np.ndim(h) else h, count - done)
            done = count
    return x


def integrate_nominal(sys: ControlSystem, x0, u, tau: float, substeps: int) -> np.ndarray:
    """Endpoint of the nominal trajectory from ``x0`` under constant input."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = _integrate(sys, np.array(x0, dtype=float), u, tau / substeps, substeps)
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
    r = _rk4(lambda r: r @ L.T + w, np.asarray(r0, dtype=float), tau / substeps, substeps)
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
    tau,
    draws,
    substeps=5,
) -> np.ndarray:
    """One disturbed sample-and-hold step of a state ``(n,)`` or of states ``(N, n)``.

    A single state takes one input ``u`` ``(m,)``, one period ``tau`` and
    one substep count.  A batch takes each of them shared or given per
    row (``(N, m)``, ``(N,)``, ``(N,)``), so runs on different layers and
    inputs advance in one call.

    The period is cut into ``DISTURBANCE_SEGMENTS`` equal segments of
    ``ceil(substeps / DISTURBANCE_SEGMENTS)`` RK4 steps each, and the
    disturbance is constant over a segment.  ``draws`` holds unit doubles
    in ``[0, 1)``, ``(DISTURBANCE_SEGMENTS, n)`` for a single state or
    ``(N, DISTURBANCE_SEGMENTS, n)`` for a batch: segment ``k`` of row
    ``i`` is disturbed by ``low + (high - low) * draws[i, k]`` on the
    disturbance box, which is how ``Generator.uniform`` maps them, so
    ``rng.random((DISTURBANCE_SEGMENTS, n))`` disturbs a state bit for bit
    like per-segment ``rng.uniform(-w, w)`` draws.  Rows are sorted by
    step count, longest first, and extra steps run on a prefix of the
    rows, so every row takes the steps it would take alone.  With a zero
    disturbance bound each row takes exactly the steps of
    ``integrate_nominal`` with its own period and substeps, and ``draws``
    is not read.
    """
    x = np.array(x0, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    tau, substeps = np.asarray(tau, dtype=float), np.asarray(substeps)
    if np.any(tau <= 0.0):
        raise ValueError("tau must be positive")
    if np.any(substeps < 1):
        raise ValueError("substeps must be >= 1")
    disturbed = bool(np.any(sys.disturbance > 0.0))
    segments = DISTURBANCE_SEGMENTS if disturbed else 1
    steps = -(-substeps // segments)
    h = tau / segments / steps
    w = None
    if disturbed:
        shape = x.shape[:-1] + (segments, x.shape[-1])
        if np.shape(draws) != shape:
            raise ValueError(f"draws must have shape {shape}, one block per state")
        low = -sys.disturbance
        w = (sys.disturbance - low) * np.asarray(draws, dtype=float)
        w += low
    order = None
    if steps.ndim or h.ndim:
        n = len(x)
        order = np.argsort(-np.broadcast_to(steps, n), kind="stable")
        x, steps = x[order], np.broadcast_to(steps, n)[order]
        # Full width: same-shape products are faster than column broadcasts.
        h = np.repeat(np.broadcast_to(h, n)[order, None], x.shape[1], axis=1)
        u = u[order] if u.ndim == 2 else u
        w = None if w is None else w[order]
    if w is not None and x.ndim == 2:
        w = w.transpose(1, 0, 2)
    x = _integrate(sys, x, u, h, steps, w)
    if not np.all(np.isfinite(x)):
        raise IntegrationDivergenceError("non-finite state in disturbed simulation")
    if order is None:
        return x
    out = np.empty_like(x)
    out[order] = x
    return out
