"""Golden reference: the outputs that define a synthesis result stay fixed.

For every algorithm this pins the sha256 of the serialized controller,
which covers stage order, layers, domains, moves and ranks, and the
sha256 of the layer-1 winning bits. For the multi-layer algorithms it
also pins the sha256 of ``stats.to_dict()``, which holds the exact
counters and the protocol trace. For ``single-layer`` it pins the
layer-1 counters. Digests are cut to their first 16 hex digits.
``VALIDATION`` pins, for the workload configs and every reach-avoid
row, the sha256 of ``validate(...).to_dict()`` for a few short
closed-loop runs at a fixed seed, and the sha256 of the (stage,
layer, input, rank) sequence and status of closed-loop runs from fixed
states spread over the controller domain, stepped one state at a time
by ``simulate_oracle``, which covers the stages and the moves that the
controller picks.  ``WORK`` pins, for the workload configs under their
own algorithm, the tracemalloc peak in bytes of ``synthesize`` and of
``validate`` at the perfbench workload's runs and horizon, each measured
after one untraced warm-up call and a full collection; a peak may move
by ``WORK_TOLERANCE`` of its pin.

A refactor must leave every digest unchanged and every peak within its
tolerance. A change that is meant to alter a result or a peak prints the
new tables with ``PYTHONPATH=src python tests/test_reference.py``,
pastes them below and says why.  Each printed row that differs from the pinned one ends with
``# was <pinned value>``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import DCDC_SAFE, UNICYCLE_LAZY, random_problem
from oracles import seeded_draws, simulate_oracle
from layersynth import synthesize
from layersynth.config import parse_config
from layersynth.controller import serialize, validate
from layersynth.problem import REACH_AVOID, SAFETY

ALGORITHMS = {
    SAFETY: ("eager-safe", "lazy-safe", "single-layer"),
    REACH_AVOID: ("eager-reach", "lazy-reach", "single-layer"),
}

# (kind, levels, seed) of random_problem; every instance wins cells,
# most of them with stages on more than one layer.
RANDOM = [
    (kind, levels, seed)
    for kind, seeds in ((SAFETY, (12, 43, 49)), (REACH_AVOID, (2, 4, 8)))
    for levels in (2, 3)
    for seed in seeds
]


# Workload configs pinned by name, with the algorithms of each.
CONFIGS = {
    "dcdc-safe": (DCDC_SAFE, ALGORITHMS[SAFETY]),
    "unicycle-lazy": (UNICYCLE_LAZY, ("eager-reach", "lazy-reach")),
}


# Closed-loop runs behind the validation digests: (runs, horizon, seed),
# and how many fixed initial states the trajectory digest follows.
VALIDATION_RUNS = (4, 20, 7)
TRAJECTORY_STARTS = 8

# Closed-loop (runs, horizon) of each workload behind WORK, as perfbench
# validates it, at the seed of VALIDATION_RUNS.
WORK_RUNS = {"dcdc-safe": (30, 100), "unicycle-lazy": (1600, 200)}
WORK_TOLERANCE = 0.01


def run(sys_, stack, spec, algorithm):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return synthesize(sys_, stack, spec, algorithm)


@functools.lru_cache(maxsize=None)
def _solved(name, algorithm, source):
    """Problem and synthesis result of one pinned run, solved once."""
    sys_, stack, spec = problem(source)
    return sys_, spec, run(sys_, stack, spec, algorithm)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(result, algorithm: str) -> tuple:
    """(controller digest, winning digest, winning count, counters)."""
    winning = result.winning
    stats = result.stats.to_dict()
    if algorithm == "single-layer":
        counters = tuple(
            stats[key][0]
            for key in ("transitions_per_layer", "cpre_evals", "fp_iterations", "winning_sizes")
        )
    else:
        counters = _digest(json.dumps(stats, sort_keys=True).encode())
    return (
        _digest(serialize(result.controller)),
        _digest(np.packbits(winning.bits).tobytes()),
        winning.count(),
        counters,
    )


def cases():
    """Yield (name, algorithm, problem source) for every pinned run."""
    for kind, levels, seed in RANDOM:
        for algorithm in ALGORITHMS[kind]:
            yield f"random-{kind}-L{levels}-s{seed}", algorithm, (kind, levels, seed)
    for name, (_, algorithms) in CONFIGS.items():
        for algorithm in algorithms:
            yield name, algorithm, name


def validation_cases():
    """The pinned runs whose closed-loop validation is pinned too."""
    for name, algorithm, source in cases():
        if isinstance(source, str) or source[0] == REACH_AVOID:
            yield name, algorithm, source


def validation_digest(sys_, spec, result) -> tuple[str, str]:
    """(validation report digest, closed-loop trajectory digest)."""
    mlc = result.controller
    runs, horizon, seed = VALIDATION_RUNS
    report = validate(mlc, sys_, spec, runs, horizon, seed)
    cells = mlc.domain_projection().indices()
    starts = cells[:: max(1, cells.size // TRAJECTORY_STARTS)][:TRAJECTORY_STARTS]
    eta1 = mlc.stack.eta(1)
    runs_seen = []
    for i, cell in enumerate(starts):
        x0 = mlc.stack.centers(1, np.asarray([cell]))[0] + 0.3 * eta1
        log = simulate_oracle(mlc, sys_, spec, x0, horizon, seeded_draws(seed + i, mlc.stack.dim))
        steps = [(e.stage, e.layer, e.input_index, e.rank) for e in log.entries]
        runs_seen.append([log.status, steps])
    return (
        _digest(json.dumps(report.to_dict(), sort_keys=True).encode()),
        _digest(json.dumps(runs_seen).encode()),
    )


def traced_peak(call) -> int:
    """tracemalloc peak of ``call()`` in bytes, after one untraced
    warm-up call and a full collection, which empties the free lists."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def work_cases():
    """(name, algorithm) of every WORK row: each workload's own algorithm."""
    for name in WORK_RUNS:
        yield name, CONFIGS[name][0]["algorithm"]


def work(name: str, algorithm: str) -> tuple[int, int]:
    """(synthesize peak, validate peak) of a workload, in bytes."""
    sys_, stack, spec = problem(name)
    result = _solved(name, algorithm, name)[2]
    runs, horizon = WORK_RUNS[name]
    seed = VALIDATION_RUNS[2]
    return (
        traced_peak(lambda: run(sys_, stack, spec, algorithm)),
        traced_peak(lambda: validate(result.controller, sys_, spec, runs, horizon, seed)),
    )


def problem(source):
    if isinstance(source, str):
        config = parse_config(CONFIGS[source][0])
        return config.build_system(), config.build_stack(), config.build_spec()
    kind, levels, seed = source
    return random_problem(seed, kind=kind, levels=levels)


# fmt: off
GOLDEN = {
    ('random-safe-L2-s12', 'eager-safe'): ('35f034c9d5f052a2', '88ed4d7f8961e5d6', 16, '99520e1a572e690b'),
    ('random-safe-L2-s12', 'lazy-safe'): ('35f034c9d5f052a2', '88ed4d7f8961e5d6', 16, '237a72a8d42d33d5'),
    ('random-safe-L2-s12', 'single-layer'): ('cc55547165e51175', '88ed4d7f8961e5d6', 16, (234, 4, 4, 16)),
    ('random-safe-L2-s43', 'eager-safe'): ('aa6055d615a4941a', 'e2802a6b5d794edb', 71, 'b8410fd89a02889a'),
    ('random-safe-L2-s43', 'lazy-safe'): ('aa6055d615a4941a', 'e2802a6b5d794edb', 71, '16c575637ba6fd66'),
    ('random-safe-L2-s43', 'single-layer'): ('f914aff2de2fa7f7', 'e2802a6b5d794edb', 71, (378, 7, 7, 71)),
    ('random-safe-L2-s49', 'eager-safe'): ('7351221bb8cad544', 'd03225b5403bfd73', 32, '75bda7b4fab799e3'),
    ('random-safe-L2-s49', 'lazy-safe'): ('7351221bb8cad544', 'd03225b5403bfd73', 32, '87c37d0d4f89b293'),
    ('random-safe-L2-s49', 'single-layer'): ('0813b28dc1cd67cc', 'd03225b5403bfd73', 32, (104, 3, 3, 32)),
    ('random-safe-L3-s12', 'eager-safe'): ('9323332735c38ba9', '4ca1b742236909c2', 30, '1cc49abdc11844e6'),
    ('random-safe-L3-s12', 'lazy-safe'): ('9323332735c38ba9', '4ca1b742236909c2', 30, '10d73b604d6f6420'),
    ('random-safe-L3-s12', 'single-layer'): ('6ad2c523b45dec06', 'f6f4635d49b150da', 27, (972, 7, 7, 27)),
    ('random-safe-L3-s43', 'eager-safe'): ('70ad6e91db814cec', '3792f1821318ee1d', 334, '8cd8bdc0a0d17033'),
    ('random-safe-L3-s43', 'lazy-safe'): ('70ad6e91db814cec', '3792f1821318ee1d', 334, 'bf04e045b7aedc2c'),
    ('random-safe-L3-s43', 'single-layer'): ('314e7779df20b9d4', 'abc33a5f7eeea76d', 333, (1542, 12, 12, 333)),
    ('random-safe-L3-s49', 'eager-safe'): ('6995691242e3230b', '1c33808d5f19f9ee', 140, '5d6b5c319242c09f'),
    ('random-safe-L3-s49', 'lazy-safe'): ('6995691242e3230b', '1c33808d5f19f9ee', 140, 'aa31fb2e5fff8b38'),
    ('random-safe-L3-s49', 'single-layer'): ('f47b9a43e71bfd70', '1c33808d5f19f9ee', 140, (434, 7, 7, 140)),
    ('random-reach-avoid-L2-s2', 'eager-reach'): ('64031b6b34863dc5', 'f8699d28a2119b90', 11, '95fee03f7a288a58'),
    ('random-reach-avoid-L2-s2', 'lazy-reach'): ('64031b6b34863dc5', 'f8699d28a2119b90', 11, 'fd4efc8995036e0f'),
    ('random-reach-avoid-L2-s2', 'single-layer'): ('64031b6b34863dc5', 'f8699d28a2119b90', 11, (288, 2, 2, 2)),
    ('random-reach-avoid-L2-s4', 'eager-reach'): ('3f3b7c9d4ab533b2', 'b8b7ab2f32ecc62b', 8, '2153f0b76b23a5c8'),
    ('random-reach-avoid-L2-s4', 'lazy-reach'): ('3f3b7c9d4ab533b2', 'b8b7ab2f32ecc62b', 8, '624731867ca4433a'),
    ('random-reach-avoid-L2-s4', 'single-layer'): ('3f3b7c9d4ab533b2', 'b8b7ab2f32ecc62b', 8, (348, 2, 2, 1)),
    ('random-reach-avoid-L2-s8', 'eager-reach'): ('aaff1f72165317e3', '4942623d01bdfdbf', 25, 'd6f7add6f204cbe8'),
    ('random-reach-avoid-L2-s8', 'lazy-reach'): ('aaff1f72165317e3', '4942623d01bdfdbf', 25, '253ef1800a091116'),
    ('random-reach-avoid-L2-s8', 'single-layer'): ('b143c2d733cb8d26', '4942623d01bdfdbf', 25, (264, 4, 4, 15)),
    ('random-reach-avoid-L3-s2', 'eager-reach'): ('d1b253d760ba5212', '8151fcb9262fa0e1', 82, '15370c0e92fb9e78'),
    ('random-reach-avoid-L3-s2', 'lazy-reach'): ('d1b253d760ba5212', '8151fcb9262fa0e1', 82, '1e6b77df29dc3857'),
    ('random-reach-avoid-L3-s2', 'single-layer'): ('1337d93be143eda9', '40ab0c6c79083da5', 81, (1152, 8, 8, 25)),
    ('random-reach-avoid-L3-s4', 'eager-reach'): ('dd1f83c4938d09b6', '5f177c291742ebc1', 82, '45dab7a600b1356a'),
    ('random-reach-avoid-L3-s4', 'lazy-reach'): ('dd1f83c4938d09b6', '5f177c291742ebc1', 82, 'e57c6e16c025e81e'),
    ('random-reach-avoid-L3-s4', 'single-layer'): ('d9fd5ef1c8980bb5', '2c97b009cdb8cfe3', 81, (1440, 11, 11, 45)),
    ('random-reach-avoid-L3-s8', 'eager-reach'): ('f0f8d837bd783d7d', '9efccbe509a4de15', 112, '94d6fe58c13e2f85'),
    ('random-reach-avoid-L3-s8', 'lazy-reach'): ('f0f8d837bd783d7d', '9efccbe509a4de15', 112, 'd5aad0289de5fc78'),
    ('random-reach-avoid-L3-s8', 'single-layer'): ('ee7cd678e5ba64b4', '1c9766b59e1eebfc', 110, (1098, 4, 4, 57)),
    ('dcdc-safe', 'eager-safe'): ('f591075200bd68b3', 'd043bb071d846840', 5393, 'fcf9d4a3a2786437'),
    ('dcdc-safe', 'lazy-safe'): ('f591075200bd68b3', 'd043bb071d846840', 5393, 'b907c32e7c0d5093'),
    ('dcdc-safe', 'single-layer'): ('c1cbf790a1390cef', '67eefbeadd989ebc', 5262, (12800, 32, 32, 5262)),
    ('unicycle-lazy', 'eager-reach'): ('77efa33ef70a985b', 'a1970be5b312dddc', 11782, '70a7a083b5f5ece9'),
    ('unicycle-lazy', 'lazy-reach'): ('77efa33ef70a985b', 'a1970be5b312dddc', 11782, '7f2ce206390b279f'),
}
VALIDATION = {
    ('random-reach-avoid-L2-s2', 'eager-reach'): ('673322c9da4f6014', '6264a3d8aec12880'),
    ('random-reach-avoid-L2-s2', 'lazy-reach'): ('673322c9da4f6014', '6264a3d8aec12880'),
    ('random-reach-avoid-L2-s2', 'single-layer'): ('673322c9da4f6014', '6264a3d8aec12880'),
    ('random-reach-avoid-L2-s4', 'eager-reach'): ('2020228e56000efa', 'c070ae58871dbbdd'),
    ('random-reach-avoid-L2-s4', 'lazy-reach'): ('2020228e56000efa', 'c070ae58871dbbdd'),
    ('random-reach-avoid-L2-s4', 'single-layer'): ('2020228e56000efa', 'c070ae58871dbbdd'),
    ('random-reach-avoid-L2-s8', 'eager-reach'): ('37740f029e2e9714', 'd084a6085ab16310'),
    ('random-reach-avoid-L2-s8', 'lazy-reach'): ('37740f029e2e9714', 'd084a6085ab16310'),
    ('random-reach-avoid-L2-s8', 'single-layer'): ('37740f029e2e9714', 'b7caf1ce651fe112'),
    ('random-reach-avoid-L3-s2', 'eager-reach'): ('e31841b7c162ba4b', '254d0f81280a9546'),
    ('random-reach-avoid-L3-s2', 'lazy-reach'): ('e31841b7c162ba4b', '254d0f81280a9546'),
    ('random-reach-avoid-L3-s2', 'single-layer'): ('37740f029e2e9714', 'dacd70d328e04cfd'),
    ('random-reach-avoid-L3-s4', 'eager-reach'): ('c7861d0f7563451d', '74581fb6134d83c0'),
    ('random-reach-avoid-L3-s4', 'lazy-reach'): ('c7861d0f7563451d', '74581fb6134d83c0'),
    ('random-reach-avoid-L3-s4', 'single-layer'): ('4cac7709caedce75', '17860a0302f39551'),
    ('random-reach-avoid-L3-s8', 'eager-reach'): ('e31841b7c162ba4b', 'd91f07338c3b12f5'),
    ('random-reach-avoid-L3-s8', 'lazy-reach'): ('e31841b7c162ba4b', 'd91f07338c3b12f5'),
    ('random-reach-avoid-L3-s8', 'single-layer'): ('528ad388c2f88198', 'c8acd74da763d675'),
    ('dcdc-safe', 'eager-safe'): ('9717401fbb4c46de', 'cb7b09f60f5010c5'),
    ('dcdc-safe', 'lazy-safe'): ('9717401fbb4c46de', 'cb7b09f60f5010c5'),
    ('dcdc-safe', 'single-layer'): ('9717401fbb4c46de', 'de34699bddc5c5a9'),
    ('unicycle-lazy', 'eager-reach'): ('977894ac2b99f470', '8f1b90a405c9e758'),
    ('unicycle-lazy', 'lazy-reach'): ('977894ac2b99f470', '8f1b90a405c9e758'),
}
WORK = {
    ('dcdc-safe', 'lazy-safe'): (528455, 82837),
    ('unicycle-lazy', 'lazy-reach'): (3777684, 1315760),
}
# fmt: on


@pytest.mark.parametrize(
    "name, algorithm, source", list(cases()), ids=[f"{n}-{a}" for n, a, _ in cases()]
)
def test_matches_golden_reference(name, algorithm, source):
    got = fingerprint(_solved(name, algorithm, source)[2], algorithm)
    assert got == GOLDEN[(name, algorithm)]


@pytest.mark.parametrize(
    "name, algorithm, source",
    list(validation_cases()),
    ids=[f"{n}-{a}" for n, a, _ in validation_cases()],
)
def test_validation_matches_golden_reference(name, algorithm, source):
    got = validation_digest(*_solved(name, algorithm, source))
    assert got == VALIDATION[(name, algorithm)]


@pytest.mark.parametrize("name, algorithm", list(work_cases()), ids=[n for n, _ in work_cases()])
def test_work_matches_pinned_peaks(name, algorithm):
    got = work(name, algorithm)
    pinned = WORK[(name, algorithm)]
    for what, peak, pin in zip(("synthesize", "validate"), got, pinned):
        assert abs(peak - pin) <= WORK_TOLERANCE * pin, (what, peak, pin)


def _row(key, value, pinned) -> str:
    """One printed table row, marked with the pinned value it replaces."""
    old = pinned.get(key)
    mark = "" if old == value else f"  # was {old!r}"
    return f"    {key!r}: {value!r},{mark}"


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, algorithm, source in cases():
        value = fingerprint(_solved(name, algorithm, source)[2], algorithm)
        print(_row((name, algorithm), value, GOLDEN))
    print("}")
    print("VALIDATION = {")
    for name, algorithm, source in validation_cases():
        value = validation_digest(*_solved(name, algorithm, source))
        print(_row((name, algorithm), value, VALIDATION))
    print("}")
    print("WORK = {")
    for name, algorithm in work_cases():
        print(_row((name, algorithm), work(name, algorithm), WORK))
    print("}")
