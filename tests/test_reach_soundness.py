"""Sampled soundness of the stored reach boxes.

Random (cell, input) pairs are explored on every layer's main and
auxiliary table of the shipped dcdc-desk config, of the unicycle-lazy
workload under its default and other dynamics params, and of a 2-layer
and a 3-layer random problem of the sweep.  Start states are sampled in each cell, its corners included,
and stepped over one period under unit disturbance draws: random ones,
and every corner of the disturbance box held constant.  Integration uses
four times the table's substeps.

- A main-table pair with a stored box must end every state in the box's
  cells.  A pair with no box must have a reach box that leaves the region.
- An auxiliary box is clipped to the region, so only end states inside
  the region are checked, and a pair with no box may end none there.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import SWEEP, UNICYCLE_LAZY, UNICYCLE_PARAMS, random_problem
from layersynth import CellSet, TransitionTable, default_config, parse_config
from layersynth.dynamics import DISTURBANCE_SEGMENTS, reach_boxes, sample_disturbed_step

FINER = 4
# Float rounding of the grid coordinates of an end state, in cell widths.
TOL = 1e-9


def start_states(stack, layer, cells, rng, interior=4):
    """Per cell, its ``2**n`` corners then ``interior`` uniform points: ``(C, S, n)``."""
    eta = stack.eta(layer)
    lower = stack.centers(layer, cells) - 0.5 * eta
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=stack.dim)))
    frac = np.concatenate(
        [np.broadcast_to(corners, (cells.size,) + corners.shape),
         rng.random((cells.size, interior, stack.dim))],
        axis=1,
    )
    return lower[:, None, :] + frac * eta


def unit_draws(dim, rng, random=2):
    """Every corner of the disturbance box held over all segments, then
    ``random`` uniform sequences: ``(D, DISTURBANCE_SEGMENTS, dim)``."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    held = np.repeat(corners[:, None, :], DISTURBANCE_SEGMENTS, axis=1)
    return np.concatenate([held, rng.random((random, DISTURBANCE_SEGMENTS, dim))])


def check_table(sys, stack, table, cells, rng):
    """Sample every input of ``cells`` on ``table``; returns the pairs with a box."""
    gl = table.grid_layer
    table.compute_region(CellSet.from_indices(stack, gl, cells))
    states = start_states(stack, gl, cells, rng)
    draws = unit_draws(sys.dim, rng)
    n_states, n_draws = states.shape[1], len(draws)
    dims = stack.dims(gl)
    boxed = 0
    for u_idx, u in enumerate(sys.inputs):
        stored, lo, hi = table.csr(u_idx)
        row = {int(c): k for k, c in enumerate(stored)}
        x0 = np.repeat(states.reshape(-1, sys.dim), n_draws, axis=0)
        w = np.tile(draws, (cells.size * n_states, 1, 1))
        x1 = sample_disturbed_step(sys, x0, u, table.tau, w, FINER * table.substeps)
        q = ((x1 - stack.y_lower) / stack.eta(gl)).reshape(cells.size, -1, sys.dim)
        (reach_lo, reach_hi), _ = reach_boxes(
            sys, stack.centers(gl, cells), table._radius[u_idx], [u], table.tau, table.substeps
        )
        q_lo, q_hi = stack.grid_coords(gl, reach_lo[0]), stack.grid_coords(gl, reach_hi[0])
        for i, cell in enumerate(cells.tolist()):
            ends = q[i]
            if table.kind == "aux":
                ends = ends[np.all((ends >= -TOL) & (ends <= dims + TOL), axis=1)]
            k = row.get(cell)
            if k is None:
                if table.kind == "main":
                    assert np.any(q_lo[i] < 0.0) or np.any(q_hi[i] > dims), (
                        f"layer {table.layer} cell {cell} input {u_idx}: no box, "
                        "but the reach box lies in the region"
                    )
                else:
                    assert ends.size == 0, (
                        f"aux layer {table.layer} cell {cell} input {u_idx}: no box, "
                        "but a sampled state ends in the region"
                    )
                continue
            boxed += 1
            inside = np.all((ends >= lo[k] - TOL) & (ends <= hi[k] + 1 + TOL), axis=1)
            assert inside.all(), (
                f"{table.kind} layer {table.layer} cell {cell} input {u_idx}: end state "
                f"{ends[~inside][0]} (grid units) outside cells {lo[k]}..{hi[k]}"
            )
    return boxed


def _config(doc):
    config = parse_config(doc)
    return config.build_system(), config.build_stack(), config.substeps


def _swept(levels):
    """The sweep's first random problem with ``levels`` layers."""
    seed = next(s for l, s in SWEEP if l == levels)
    return random_problem(seed, levels=levels)[:2] + (5,)


# name -> (system, stack and substeps, pairs drawn per table)
INSTANCES = {
    "dcdc-desk": (lambda: _config(default_config("dcdc-desk")), 24),
    "unicycle-lazy": (lambda: _config(UNICYCLE_LAZY), 6),
    "unicycle-params": (
        lambda: _config({**UNICYCLE_LAZY, "dynamics_params": UNICYCLE_PARAMS}), 6
    ),
    "sweep-2-layers": (lambda: _swept(2), 24),
    "sweep-3-layers": (lambda: _swept(3), 24),
}


@pytest.mark.parametrize("name", INSTANCES)
def test_sampled_end_states_lie_in_stored_boxes(name):
    build, per_table = INSTANCES[name]
    sys, stack, substeps = build()
    rng = np.random.default_rng(17)
    for layer in range(1, stack.levels + 1):
        for kind in ("main", "aux"):
            table = TransitionTable(sys, stack, layer, kind, substeps)
            cells = rng.choice(table.n_cells, size=min(per_table, table.n_cells), replace=False)
            assert check_table(sys, stack, table, cells, rng) > 0
