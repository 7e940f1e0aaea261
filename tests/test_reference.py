"""Golden reference: the outputs that define a synthesis result stay fixed.

For every algorithm this pins the sha256 of the serialized controller,
which covers stage order, layers, domains, moves and ranks, and the
sha256 of the layer-1 winning bits. For the multi-layer algorithms it
also pins the sha256 of ``stats.to_dict()``, which holds the exact
counters and the protocol trace. For ``single-layer`` it pins the
layer-1 counters. Digests are cut to their first 16 hex digits.

A refactor must leave every value unchanged. A change that is meant to
alter a result prints the new table with
``PYTHONPATH=src python tests/test_reference.py``, pastes it below and
says why.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from conftest import DCDC_SAFE, random_problem
from layersynth import synthesize
from layersynth.config import parse_config
from layersynth.controller import serialize
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


def run(sys_, stack, spec, algorithm):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return synthesize(sys_, stack, spec, algorithm)


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
    for algorithm in ALGORITHMS[SAFETY]:
        yield "dcdc-safe", algorithm, None


def problem(source):
    if source is None:
        config = parse_config(DCDC_SAFE)
        return config.build_system(), config.build_stack(), config.build_spec()
    kind, levels, seed = source
    return random_problem(seed, kind=kind, levels=levels)


# fmt: off
GOLDEN = {
    ('random-safe-L2-s12', 'eager-safe'): ('208c7322197bd631', '88ed4d7f8961e5d6', 16, 'e8b019f585506687'),
    ('random-safe-L2-s12', 'lazy-safe'): ('35f034c9d5f052a2', '88ed4d7f8961e5d6', 16, '237a72a8d42d33d5'),
    ('random-safe-L2-s12', 'single-layer'): ('cc55547165e51175', '88ed4d7f8961e5d6', 16, (234, 4, 4, 16)),
    ('random-safe-L2-s43', 'eager-safe'): ('520ad049b522591c', 'e2802a6b5d794edb', 71, '24960bc1f0753b86'),
    ('random-safe-L2-s43', 'lazy-safe'): ('aa6055d615a4941a', 'e2802a6b5d794edb', 71, '16c575637ba6fd66'),
    ('random-safe-L2-s43', 'single-layer'): ('f914aff2de2fa7f7', 'e2802a6b5d794edb', 71, (378, 7, 7, 71)),
    ('random-safe-L2-s49', 'eager-safe'): ('3dcf9cc94cc6667f', 'd03225b5403bfd73', 32, '7ead75d170c4a860'),
    ('random-safe-L2-s49', 'lazy-safe'): ('7351221bb8cad544', 'd03225b5403bfd73', 32, '87c37d0d4f89b293'),
    ('random-safe-L2-s49', 'single-layer'): ('0813b28dc1cd67cc', 'd03225b5403bfd73', 32, (104, 3, 3, 32)),
    ('random-safe-L3-s12', 'eager-safe'): ('7275e3dfd4baafd3', '4ca1b742236909c2', 30, '051412b8fa8392d0'),
    ('random-safe-L3-s12', 'lazy-safe'): ('9323332735c38ba9', '4ca1b742236909c2', 30, '10d73b604d6f6420'),
    ('random-safe-L3-s12', 'single-layer'): ('6ad2c523b45dec06', 'f6f4635d49b150da', 27, (972, 7, 7, 27)),
    ('random-safe-L3-s43', 'eager-safe'): ('b947f9fcce17aebe', '3792f1821318ee1d', 334, 'c6154bc6d2bf5e1a'),
    ('random-safe-L3-s43', 'lazy-safe'): ('70ad6e91db814cec', '3792f1821318ee1d', 334, 'bf04e045b7aedc2c'),
    ('random-safe-L3-s43', 'single-layer'): ('314e7779df20b9d4', 'abc33a5f7eeea76d', 333, (1542, 12, 12, 333)),
    ('random-safe-L3-s49', 'eager-safe'): ('ae2af68177e3ad9a', '1c33808d5f19f9ee', 140, '552fa2065dc81d6e'),
    ('random-safe-L3-s49', 'lazy-safe'): ('6995691242e3230b', '1c33808d5f19f9ee', 140, 'aa31fb2e5fff8b38'),
    ('random-safe-L3-s49', 'single-layer'): ('f47b9a43e71bfd70', '1c33808d5f19f9ee', 140, (434, 7, 7, 140)),
    ('random-reach-avoid-L2-s2', 'eager-reach'): ('64031b6b34863dc5', 'f8699d28a2119b90', 11, '95fee03f7a288a58'),
    ('random-reach-avoid-L2-s2', 'lazy-reach'): ('64031b6b34863dc5', 'f8699d28a2119b90', 11, '316e0e94259dbc5e'),
    ('random-reach-avoid-L2-s2', 'single-layer'): ('64031b6b34863dc5', 'f8699d28a2119b90', 11, (288, 2, 2, 2)),
    ('random-reach-avoid-L2-s4', 'eager-reach'): ('3f3b7c9d4ab533b2', 'b8b7ab2f32ecc62b', 8, '2153f0b76b23a5c8'),
    ('random-reach-avoid-L2-s4', 'lazy-reach'): ('3f3b7c9d4ab533b2', 'b8b7ab2f32ecc62b', 8, 'a09dc2776ebae353'),
    ('random-reach-avoid-L2-s4', 'single-layer'): ('3f3b7c9d4ab533b2', 'b8b7ab2f32ecc62b', 8, (348, 2, 2, 1)),
    ('random-reach-avoid-L2-s8', 'eager-reach'): ('aaff1f72165317e3', '4942623d01bdfdbf', 25, 'd6f7add6f204cbe8'),
    ('random-reach-avoid-L2-s8', 'lazy-reach'): ('aaff1f72165317e3', '4942623d01bdfdbf', 25, 'd8f0d6d33175f48d'),
    ('random-reach-avoid-L2-s8', 'single-layer'): ('b143c2d733cb8d26', '4942623d01bdfdbf', 25, (264, 4, 4, 15)),
    ('random-reach-avoid-L3-s2', 'eager-reach'): ('d1b253d760ba5212', '8151fcb9262fa0e1', 82, '15370c0e92fb9e78'),
    ('random-reach-avoid-L3-s2', 'lazy-reach'): ('d1b253d760ba5212', '8151fcb9262fa0e1', 82, '68bb598a903781ac'),
    ('random-reach-avoid-L3-s2', 'single-layer'): ('1337d93be143eda9', '40ab0c6c79083da5', 81, (1152, 8, 8, 25)),
    ('random-reach-avoid-L3-s4', 'eager-reach'): ('dd1f83c4938d09b6', '5f177c291742ebc1', 82, '45dab7a600b1356a'),
    ('random-reach-avoid-L3-s4', 'lazy-reach'): ('dd1f83c4938d09b6', '5f177c291742ebc1', 82, '1977dffe5c3ed209'),
    ('random-reach-avoid-L3-s4', 'single-layer'): ('d9fd5ef1c8980bb5', '2c97b009cdb8cfe3', 81, (1440, 11, 11, 45)),
    ('random-reach-avoid-L3-s8', 'eager-reach'): ('f0f8d837bd783d7d', '9efccbe509a4de15', 112, '94d6fe58c13e2f85'),
    ('random-reach-avoid-L3-s8', 'lazy-reach'): ('f0f8d837bd783d7d', '9efccbe509a4de15', 112, 'e913c5a4caef65c8'),
    ('random-reach-avoid-L3-s8', 'single-layer'): ('ee7cd678e5ba64b4', '1c9766b59e1eebfc', 110, (1098, 4, 4, 57)),
    ('dcdc-safe', 'eager-safe'): ('1994048dd6973d3e', 'd043bb071d846840', 5393, '93f36fba1b9e7940'),
    ('dcdc-safe', 'lazy-safe'): ('f591075200bd68b3', 'd043bb071d846840', 5393, 'b907c32e7c0d5093'),
    ('dcdc-safe', 'single-layer'): ('c1cbf790a1390cef', '67eefbeadd989ebc', 5262, (12800, 32, 32, 5262)),
}
# fmt: on


@pytest.mark.parametrize(
    "name, algorithm, source", list(cases()), ids=[f"{n}-{a}" for n, a, _ in cases()]
)
def test_matches_golden_reference(name, algorithm, source):
    got = fingerprint(run(*problem(source), algorithm), algorithm)
    assert got == GOLDEN[(name, algorithm)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, algorithm, source in cases():
        value = fingerprint(run(*problem(source), algorithm), algorithm)
        print(f"    {(name, algorithm)!r}: {value!r},")
    print("}")
