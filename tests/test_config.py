"""The configuration decoder: JSON types, field names in errors, and boxes."""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DCDC_SAFE
from layersynth import build_spec_sets
from layersynth.config import ConfigError, parse_config

NAN, INF = float("nan"), float("inf")
ABSENT = object()  # substituting it deletes the field

FIELDS = sorted({*DCDC_SAFE, "safe_boxes", "obstacle_boxes", "target_boxes", "dynamics_params",
                 "out_dir"})

# Values substituted for whole fields: bools, huge ints, NaN/+-inf,
# strings, nested lists, malformed boxes and dicts, next to valid ones.
POOL = [
    ABSENT, None, True, False, 0, 1, -1, 3, 64, 10**11, 10**400, 0.5, -0.5, 1e308, NAN, INF, -INF,
    "", "x", "safe", "reach-avoid", "lazy-safe", "eager-reach", "dcdc", "unicycle",
    [], [1], [True, 0.1], ["a", 0.1], [0.005, 0.005], [[0.005], 0.005], [NAN, 1.0], [INF, 1.0],
    [10**400, 1.0], [1.0, 2.0, 3.0], [[[]]], [[[[1]]]],
    [[[1.2, 5.5], [1.3, 5.6]]], [[[1.3, 5.6], [1.2, 5.5]]], [[[-5.0, -5.0], [-3.0, -3.0]]],
    [[[NAN, 5.5], [1.3, 5.6]]], [[[-INF, -INF], [INF, INF]]], [[[1.2, 5.5, 0.0], [1.3, 5.6, 1.0]]],
    [{"lower": [1.2, 5.5], "upper": [1.3, 5.6]}], [{"lower": [1.2, 5.5]}], [{"upper": 1}],
    [[1, 2]], [[[1, 2]]], [[[1, 2], [3, 4], [5, 6]]], [5], ["ab"], [None], [[True, False]],
    {}, {"r0": "x"}, {"r0": [1, 2]}, {"disturbance": [NAN, 0.001]}, {"disturbance": "abc"},
    {"disturbance": [[1]]}, {"r0": 0, "rc": 0}, {"xl": 0}, {"r0": 10**400}, {"speeds": []},
    {"speeds": 5}, {"turn_rates": [[1, 2]]}, {"lower": 1},
]


def substituted(edits) -> dict:
    doc = dict(DCDC_SAFE)
    for key, value in edits:
        doc.pop(key, None) if value is ABSENT else doc.__setitem__(key, value)
    return doc


def decodes_or_raises_config_error(doc) -> None:
    """``parse_config`` returns a config whose objects build, or raises
    ``ConfigError`` whose message starts with a document field."""
    try:
        config = parse_config(doc)
    except ConfigError as exc:
        assert str(exc).split(":")[0] in FIELDS, str(exc)
        return
    config.build_system(), config.build_stack(), config.build_spec()
    json.dumps(config.to_dict())


def test_every_single_substitution_decodes_or_raises_config_error():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # only the exception type is tested here
        for key in FIELDS:
            for value in POOL:
                decodes_or_raises_config_error(substituted([(key, value)]))


@settings(max_examples=400)
@given(edits=st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(POOL)), min_size=2,
                      max_size=4))
def test_substituted_documents_decode_or_raise_config_error(edits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decodes_or_raises_config_error(substituted(edits))


@pytest.mark.parametrize(
    "key, value",
    [("layers", True), ("tau1", True), ("m", True), ("substeps", False), ("out_dir", [1]),
     ("eta1", [0.005, True]), ("benchmark", 1), ("algorithm", None)],
)
def test_wrong_json_types_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        parse_config({**DCDC_SAFE, key: value})


@pytest.mark.parametrize("layers", [64, 100_000_000_000])
def test_impossible_level_count_is_a_layers_error(layers):
    with pytest.raises(ConfigError, match="^layers: levels = "):
        parse_config({**DCDC_SAFE, "layers": layers})


UNIT_SQUARE = {
    **DCDC_SAFE,
    "layers": 1,
    "eta1": [0.1, 0.1],
    "y_lower": [0.0, 0.0],
    "y_upper": [1.0, 1.0],
}


@pytest.mark.parametrize(
    "box",
    [[[-5.0, -5.0], [-3.0, -3.0]], [[3.0, 3.0], [5.0, 5.0]], [[-5.0, 0.2], [-3.0, 0.8]],
     [[0.2, -INF], [0.8, -1.0]], [[-INF, -INF], [-1e-9, -1e-9]]],
    ids=["below", "above", "left", "under-to-infinity", "just-below"],
)
def test_obstacle_outside_the_region_keeps_every_safe_cell(box):
    config = parse_config({**UNIT_SQUARE, "obstacle_boxes": [box]})
    assert build_spec_sets(config.build_stack(), config.build_spec()).safe_at(1).count() == 100


def test_boxes_are_passed_on_unclipped():
    box = [[-5.0, 0.2], [0.5, 9.0]]
    config = parse_config({**UNIT_SQUARE, "safe_boxes": [box]})
    assert config.to_dict()["safe_boxes"] == [box]
    assert build_spec_sets(config.build_stack(), config.build_spec()).safe_at(1).count() == 40


@pytest.mark.parametrize("key", ["safe_boxes", "obstacle_boxes", "target_boxes"])
def test_nan_box_corner_names_the_box_field(key):
    doc = {**DCDC_SAFE, "spec": "reach-avoid", "algorithm": "lazy-reach",
           "target_boxes": [[[1.2, 5.5], [1.3, 5.6]]]}
    with pytest.raises(ConfigError, match=f"^{key}: box 0 "):
        parse_config({**doc, key: [[[1.2, NAN], [1.3, 5.6]]]})


@pytest.mark.parametrize(
    "edit, field",
    [({"spec": "reach-avoid"}, "spec"), ({"obstacle_boxes": [[[1.3, 5.6], [1.2, 5.5]]]},
                                          "obstacle_boxes"),
     ({"target_boxes": [[[1.2], [1.3]]]}, "target_boxes"), ({"eta1": [0.005]}, "layers"),
     ({"dynamics_params": {"disturbance": [1.0]}}, "dynamics_params")],
    ids=["target-missing", "reversed-box", "box-dimension", "grid-dimension", "disturbance-shape"],
)
def test_owner_errors_are_reported_under_their_field(edit, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        parse_config({**DCDC_SAFE, "algorithm": "single-layer", **edit})


def test_missing_required_field_is_named():
    doc = {key: value for key, value in DCDC_SAFE.items() if key != "tau1"}
    with pytest.raises(ConfigError, match="^tau1: required field 'tau1' missing"):
        parse_config(doc)
