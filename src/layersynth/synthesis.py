"""Game-solving core over multi-layered abstractions.

Safety is a greatest fixed point of the controllable-predecessor
operator, reach-avoid a least one.  :func:`cpre` is that operator, and
the protocols read every step's winning cells and moves from the one
closing mask it returns; :func:`upre` is the cooperative predecessor.
Both are game logic over the transition table's box store
(:meth:`TransitionTable.mark_touching` and
:attr:`TransitionTable.has_box`).  The multi-resolution protocols run
those fixed points one layer at a time, saving intermediate winning
sets to the finest layer and re-loading them when switching layers.
Both modes run the same protocols and explore the cells each step
reads; exploring an explored cell is a no-op.  Eager mode pre-fills
every main table over its safe set first.  Only lazy reach-avoid
expands its frontier through a cooperative-predecessor
over-approximation on coarse auxiliary systems.

:func:`synthesize` is the one entry point for every algorithm.  The
single-layer baseline is not a separate solver: it is the eager protocol
on a one-level stack, the case the multi-layer protocols reduce to.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .abstraction import TransitionTable, check_count
from .controller import LayerController, MultiLayeredController
from .dynamics import ControlSystem
from .grid import CellSet, LayerStack, gamma_down, gamma_up
from .problem import ProblemSpec, REACH_AVOID, SAFETY, SpecSets, build_spec_sets

#: Names accepted by :func:`synthesize`.
ALGORITHMS = ("eager-safe", "lazy-safe", "eager-reach", "lazy-reach", "single-layer")
_SUFFIX = {SAFETY: "-safe", REACH_AVOID: "-reach"}

# Cap on safety rounds and on reach-avoid layer switches.
_MAX_SWITCHES = 100_000


class NonterminationError(RuntimeError):
    """Safety rounds or reach-avoid layer switches exceeded their cap."""


@dataclass
class SynthesisStats:
    """Counters and trace of one synthesis run (timings kept separate)."""

    levels: int
    transitions_per_layer: list[int] = field(default_factory=list)
    aux_transitions: dict[int, int] = field(default_factory=dict)
    cpre_evals: list[int] = field(default_factory=list)
    upre_evals: dict[int, int] = field(default_factory=dict)
    fp_iterations: list[int] = field(default_factory=list)
    winning_sizes: list[int] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.cpre_evals:
            self.cpre_evals = [0] * self.levels
        if not self.fp_iterations:
            self.fp_iterations = [0] * self.levels

    def to_dict(self) -> dict:
        """Deterministic counters only; wall times are reported apart."""
        return {
            "levels": self.levels,
            "transitions_per_layer": list(self.transitions_per_layer),
            "aux_transitions": {str(k): v for k, v in sorted(self.aux_transitions.items())},
            "cpre_evals": list(self.cpre_evals),
            "upre_evals": {str(k): v for k, v in sorted(self.upre_evals.items())},
            "fp_iterations": list(self.fp_iterations),
            "winning_sizes": list(self.winning_sizes),
            "trace": list(self.trace),
        }


@dataclass
class SynthesisResult:
    winning: CellSet
    controller: MultiLayeredController
    stats: SynthesisStats


def _moves_into(mask: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Moves of ``cells``: row ``k`` is the column of ``cells[k]`` in a closing-input mask."""
    moves = mask[:, cells].T
    if not moves.any(axis=1).all():
        raise AssertionError("winning cell without a closing move")
    return moves


def cpre(table: TransitionTable, region: CellSet, candidates: CellSet) -> np.ndarray:
    """Closing mask: ``mask[u, c]`` if candidate ``c`` keeps, under input
    ``u``, every successor in ``region``.

    The controllable predecessor, as the ``(n_inputs, n_cells)`` mask
    that every step's winning cells and moves are read from: a pair
    closes if it has a box and none of its boxes holds a cell outside
    ``region``.  It is never true for an unexplored pair, one that
    leaves the region of interest, or a cell outside ``candidates``.
    Only a main table has closing masks: an auxiliary table keeps the
    clipped boxes of pairs that leave it.
    """
    if table.kind != "main":
        raise ValueError("closing masks are defined on main tables only")
    table.check_grid(candidates)
    # The pairs known not to close: every pair outside ``candidates``,
    # then every pair with a box that leaves ``region``.
    fails = np.empty((table.sys.n_inputs, table.n_cells), dtype=bool)
    np.logical_not(candidates.bits, out=fails)
    table.mark_touching(region.complement(), fails)
    # ``has_box > fails`` is ``has_box & ~fails``, in one pass.
    return np.greater(table.has_box.reshape(fails.shape), fails, out=fails)


def upre(table: TransitionTable, target: CellSet) -> CellSet:
    """Cells with an input having some successor in ``target``.

    The cooperative predecessor: used only to over-approximate where
    synthesis could make progress, never to decide winning.  Auxiliary
    pairs that leave the region take part through their successors
    clipped to it, since a finer cell inside the coarse one may reach
    those cells without leaving the region.
    """
    hit = np.zeros((table.sys.n_inputs, table.n_cells), dtype=bool)
    table.mark_touching(target, hit)
    return CellSet(target.layer, hit.any(axis=0))


def upre_m(table: TransitionTable, target: CellSet, m: int) -> tuple[CellSet, int]:
    """Cumulative m-fold application of the cooperative predecessor, and
    the number of ``upre`` applications made; it stops early once an
    application adds no cell."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = upre(table, target)
    applied = 1
    for _ in range(m - 1):
        nxt = acc.union(upre(table, acc))
        applied += 1
        if nxt == acc:
            break
        acc = nxt
    return acc, applied


@dataclass
class ReachOutcome:
    """Won set and, for the newly won ``cells`` (sorted), their moves and ranks."""

    won: CellSet
    cells: np.ndarray
    moves: np.ndarray
    ranks: np.ndarray
    fixed_point: bool
    iterations: int


class SynthesisEngine:
    """Holds the abstraction layers and runs the synthesis protocols.

    ``m`` and ``substeps`` must be integers >= 1 (not bools).
    """

    def __init__(
        self,
        sys: ControlSystem,
        stack: LayerStack,
        spec: ProblemSpec,
        m: int = 2,
        substeps: int = 5,
    ):
        check_count("m", m)
        check_count("substeps", substeps)
        self.sys = sys
        self.stack = stack
        self.spec = spec
        self.spec_sets: SpecSets = build_spec_sets(stack, spec)
        self.m = m
        self.substeps = substeps
        self.main = [
            TransitionTable(sys, stack, l, "main", substeps) for l in range(1, stack.levels + 1)
        ]
        self.aux: dict[int, TransitionTable] = {}
        self.stats = SynthesisStats(levels=stack.levels)

    # -- plumbing --------------------------------------------------------

    def table(self, layer: int) -> TransitionTable:
        return self.main[layer - 1]

    def _timed(self, key: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.stats.timings[key] = self.stats.timings.get(key, 0.0) + time.perf_counter() - t0
        return out

    def explore(self, layer: int, region: CellSet) -> None:
        self._timed("abstraction", self.table(layer).compute_region, region)

    def ensure_aux(self, layer: int) -> TransitionTable:
        """Auxiliary system: this layer's period on the coarsest grid.

        Populated eagerly over the whole coarse grid at first use; the
        frontier over-approximation deliberately looks past obstacles.
        """
        if layer not in self.aux:
            t = TransitionTable(self.sys, self.stack, layer, "aux", self.substeps)
            full = CellSet.full(self.stack, self.stack.levels)
            self._timed("aux_abstraction", t.compute_region, full)
            self.aux[layer] = t
            self.stats.aux_transitions[layer] = t.explored_count
        return self.aux[layer]

    def populate_eager(self) -> None:
        """Pre-compute every main table over its layer's safe set."""
        for l in range(1, self.stack.levels + 1):
            self.explore(l, self.spec_sets.safe_at(l))

    # -- single-layer fixed points ----------------------------------------

    def safe_step(
        self, layer: int, current: CellSet, covered: CellSet | None = None
    ) -> tuple[CellSet, np.ndarray]:
        """One contraction step of the safety fixed point.

        The candidates are the cells of ``current`` (within the layer's
        safe set) that no coarser layer won this round, ``covered``;
        they are explored first.  Returns the candidates that can stay
        inside ``current`` for one period, and the closing-input mask
        of ``current`` that their moves come from.  The mask is False
        outside the candidates, which is exact: the final round's
        stages read only cells it won.
        """
        current = current.intersect(self.spec_sets.safe_at(layer))
        candidates = current if covered is None else current.difference(covered)
        self.explore(layer, candidates)
        self.stats.cpre_evals[layer - 1] += 1
        mask = cpre(self.table(layer), current, candidates)
        self.stats.fp_iterations[layer - 1] += 1
        return CellSet(layer, mask.any(axis=0)), mask

    def reach_m(self, layer: int, target: CellSet, m: int | None) -> ReachOutcome:
        """Run the reach-avoid fixed point for ``m`` steps (None: converge).

        Iterates ``W <- (CPre(W) n safe) u target`` over the layer's safe
        set from ``W = target n safe`` and records, for every newly won
        cell, the iteration at which it entered and the inputs that drive
        it into ``W`` of that iteration, read from the same closing-input
        mask that won it.
        Reports whether a fixed point was reached.
        """
        table = self.table(layer)
        safe = self.spec_sets.safe_at(layer)
        target = target.intersect(safe)
        candidates = safe.intersect(table.explored_cells())
        w = target.copy()
        # Per iteration: its new cells, their moves and ranks (none before the first).
        won = [(np.zeros(0, int), np.zeros((0, self.sys.n_inputs), bool), np.zeros(0, np.int32))]
        fixed = False
        iterations = 0
        while m is None or iterations < m:
            self.stats.cpre_evals[layer - 1] += 1
            mask = cpre(table, w, candidates)
            nxt = CellSet(layer, mask.any(axis=0)).union(target)
            iterations += 1
            self.stats.fp_iterations[layer - 1] += 1
            if nxt == w:
                fixed = True
                break
            new = np.flatnonzero(nxt.difference(w).bits)
            won.append((new, _moves_into(mask, new), np.full(new.size, iterations, np.int32)))
            del mask
            w = nxt
        cells, moves, ranks = (np.concatenate(part) for part in zip(*won))
        order = np.argsort(cells)
        return ReachOutcome(w, cells[order], moves[order], ranks[order], fixed, iterations)

    # -- frontier exploration ----------------------------------------------

    def expand_abstraction(self, layer: int, upsilon: CellSet) -> CellSet:
        """Explore where reach synthesis at ``layer`` could make progress.

        Over-approximates the ``self.m``-step cooperative predecessors
        of the winning region on the coarse auxiliary system, drops cells
        whose region is already won, refines to ``layer``, and computes
        the transitions of the safe part.  Returns the refined candidate
        set.
        """
        if layer >= self.stack.levels:
            raise ValueError("frontier expansion applies to layers below the coarsest")
        aux = self.ensure_aux(layer)
        L = self.stack.levels
        coarse, applied = upre_m(aux, gamma_up(self.stack, upsilon, L), self.m)
        self.stats.upre_evals[layer] = self.stats.upre_evals.get(layer, 0) + applied
        w1 = coarse.difference(gamma_down(self.stack, upsilon, L))
        w2 = gamma_down(self.stack, w1, layer)
        self.explore(layer, w2.intersect(self.spec_sets.safe_at(layer)))
        return w2

    # -- multi-resolution protocols -----------------------------------------

    def safe_iteration(self) -> tuple[CellSet, list[LayerController]]:
        """Round-robin safety protocol over all layers.

        Each round performs one fixed-point step per layer from coarse
        to fine, accumulating results on layer 1; it terminates when a
        round adds no change.  A layer's step reads only the cells that
        no coarser layer won this round, so every stage cell acts.
        Controller stages are the final round's domains, with their
        moves read from that round's closing-input masks.
        """
        stack = self.stack
        L = stack.levels
        psi = self.spec_sets.safe_at(1).copy()
        rounds = 0
        while True:
            rounds += 1
            if rounds > _MAX_SWITCHES:
                raise NonterminationError(f"safety protocol exceeded {_MAX_SWITCHES} rounds")
            upsilon = CellSet.empty(stack, 1)
            round_domains: list[tuple[int, CellSet, np.ndarray]] = []
            for layer in range(L, 0, -1):
                cur = gamma_down(stack, psi, layer)
                w, mask = self.safe_step(layer, cur, gamma_down(stack, upsilon, layer))
                round_domains.append((layer, w, mask))
                upsilon.union_update(gamma_down(stack, w, 1))
                self.stats.trace.append(
                    {"phase": "safe", "round": rounds, "layer": layer, "size": w.count()}
                )
            if not upsilon.is_subset(psi):
                raise AssertionError("layer-1 safety winning sets must shrink per round")
            if upsilon == psi:
                break
            psi = upsilon
        stages: list[LayerController] = []
        for layer, w, mask in round_domains:
            if not w.is_empty():
                cells = w.indices()
                stages.append(LayerController(layer, cells, _moves_into(mask, cells)))
        return psi, stages

    def reach_iteration(self, lazy: bool) -> tuple[CellSet, list[LayerController]]:
        """Coarse-to-fine switching protocol for reach-avoid synthesis.

        The coarsest layer runs its fixed point to convergence; lower
        layers run ``m`` steps and switch coarser whenever they keep
        making progress, finer once they stall.  Terminates when the
        finest layer reaches a fixed point.  The coarsest layer explores
        its whole safe set; in ``lazy`` runs a lower layer first expands
        its frontier through the auxiliary tables.
        """
        stack = self.stack
        L = stack.levels
        upsilon = self.spec_sets.target_at(1).copy()
        stages: list[LayerController] = []
        layer = L
        switches = 0
        while True:
            switches += 1
            if switches > _MAX_SWITCHES:
                raise NonterminationError(
                    f"layer switching exceeded {_MAX_SWITCHES} steps; "
                    f"trace tail: {self.stats.trace[-10:]}"
                )
            safe_l = self.spec_sets.safe_at(layer)
            target_l = gamma_down(stack, upsilon, layer)
            if layer == L:
                self.explore(layer, safe_l)
                outcome = self.reach_m(layer, target_l, None)
            else:
                expansion = self.expand_abstraction(layer, upsilon) if lazy else None
                outcome = self.reach_m(layer, target_l, self.m)
                if lazy:
                    fresh = outcome.won.difference(target_l.intersect(safe_l))
                    if not fresh.is_subset(expansion):
                        raise AssertionError(
                            "frontier expansion missed "
                            f"{fresh.difference(expansion).count()} newly won cells "
                            f"at layer {layer}"
                        )
            self.stats.trace.append(
                {
                    "phase": "reach",
                    "layer": layer,
                    "iterations": outcome.iterations,
                    "fixed_point": outcome.fixed_point,
                    "new_cells": outcome.cells.size,
                }
            )
            if outcome.cells.size:
                stages.append(LayerController(layer, outcome.cells, outcome.moves, outcome.ranks))
                upsilon.union_update(gamma_down(stack, outcome.won, 1))
            # The coarsest layer always runs to its fixed point.
            if not outcome.fixed_point:
                layer += 1
            elif layer == 1:
                break
            else:
                layer -= 1
        return upsilon, stages

    def finalize_stats(self, winning: CellSet, stages: list[LayerController]) -> None:
        self.stats.transitions_per_layer = [t.explored_count for t in self.main]
        sizes = [0] * self.stack.levels
        for st in stages:
            sizes[st.layer - 1] += st.cells.size
        self.stats.winning_sizes = sizes
        self.stats.trace.append({"phase": "result", "layer1_winning": winning.count()})


# -- entry point ------------------------------------------------------------


def check_algorithm(algorithm: str, kind: str) -> str:
    """``algorithm``, if it is one of :data:`ALGORITHMS` and solves
    ``kind`` problems; ``ValueError`` otherwise."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm != "single-layer" and not algorithm.endswith(_SUFFIX[kind]):
        raise ValueError(f"algorithm {algorithm} does not solve {kind!r} problems")
    return algorithm


def synthesize(
    sys: ControlSystem,
    stack: LayerStack,
    spec: ProblemSpec,
    algorithm: str,
    m: int = 2,
    substeps: int = 5,
) -> SynthesisResult:
    """Solve ``spec`` over ``stack`` with one of :data:`ALGORITHMS`.

    ``eager-*`` pre-computes every main table over its safe set before
    the protocol runs, ``lazy-*`` explores only along the frontier; both
    give the same winning set, and on safety the same controller.
    ``single-layer`` is the eager protocol on the one-level stack with
    the same finest grid and period; its stages are returned on the
    caller's ``stack``, so the controller keeps the caller's level
    count.  Degenerate problems (empty safe or target set) warn and
    return an empty controller.
    """
    check_algorithm(algorithm, spec.kind)
    if algorithm == "single-layer":
        game_stack = LayerStack(1, stack.eta1, stack.tau1, stack.y_lower, stack.y_upper)
    else:
        game_stack = stack
    engine = SynthesisEngine(sys, game_stack, spec, m=m, substeps=substeps)
    lazy = algorithm.startswith("lazy-")
    sets = engine.spec_sets
    timings = engine.stats.timings
    t0 = time.perf_counter()
    if sets.safe_at(1).is_empty():
        warnings.warn("safe-set under-approximation is empty; returning an empty controller")
        winning, stages = CellSet.empty(game_stack, 1), []
    elif spec.kind == REACH_AVOID and sets.target_at(1).is_empty():
        warnings.warn("target under-approximation is empty; returning an empty controller")
        winning, stages = CellSet.empty(game_stack, 1), []
    else:
        if not lazy:
            engine.populate_eager()
        if spec.kind == SAFETY:
            winning, stages = engine.safe_iteration()
        else:
            winning, stages = engine.reach_iteration(lazy)
    # Exploration is timed on its own; keep the ledger keys disjoint.
    explored = timings.get("abstraction", 0.0) + timings.get("aux_abstraction", 0.0)
    timings["synthesis"] = time.perf_counter() - t0 - explored
    engine.finalize_stats(winning, stages)
    return SynthesisResult(winning, MultiLayeredController(spec.kind, stack, stages), engine.stats)
