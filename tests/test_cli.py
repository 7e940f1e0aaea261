import json
import warnings

import pytest

from conftest import DCDC_SAFE, UNICYCLE_LAZY, random_problem
from layersynth import (
    ALGORITHMS,
    LayerController,
    MultiLayeredController,
    cli,
    default_config,
    synthesize,
    validate,
)
from layersynth import controller as ctrl
from layersynth.config import ConfigError, load_config, parse_config, read_config
from layersynth.problem import REACH_AVOID, SAFETY

UNICYCLE_REACH = {
    "benchmark": "unicycle",
    "spec": "reach-avoid",
    "layers": 3,
    "eta1": [0.2, 0.2, 0.2],
    "tau1": 0.45,
    "y_lower": [0.0, 0.0, -3.2],
    "y_upper": [6.4, 6.4, 3.2],
    "target_boxes": [{"lower": [4.8, 2.4, -3.2], "upper": [6.4, 4.0, 3.2]}],
    "algorithm": "lazy-reach",
}


# The dcdc-safe grid with a reach-avoid spec.
DCDC_REACH = {**DCDC_SAFE, "spec": "reach-avoid", "algorithm": "lazy-reach",
              "target_boxes": [{"lower": [1.3, 5.6], "upper": [1.4, 5.7]}]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_synthesize_validate_stats_round_trip(tmp_path, capsys):
    config = write_config(tmp_path, DCDC_SAFE)
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", config, "--out", str(out)]) == 0
    args = ["--controller", str(out / "controller.mlc"), "--config", config]
    assert cli.main(["validate", *args, "--runs", "3", "--horizon", "5"]) == 0
    reach = ["--controller", str(out / "controller.mlc"), "--config",
             write_config(tmp_path, DCDC_REACH, "reach.json")]
    assert cli.main(["validate", *reach]) == 1
    assert cli.main(["stats", "--in", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["winning_layer1_cells"] == 5393
    assert sorted({s["layer"] for s in stats["stages"]}) == [1, 2, 3]
    assert stats["flags"] == []
    captured = capsys.readouterr()
    assert "layer-1 winning cells: 5393" in captured.out
    assert "warning" not in captured.err


def test_timings_are_disjoint_phases(tmp_path):
    out = tmp_path / "out"
    for algorithm in ("eager-safe", "lazy-safe"):
        config = write_config(tmp_path, {**DCDC_SAFE, "algorithm": algorithm})
        assert cli.main(["synthesize", "--config", config, "--out", str(out)]) == 0
        timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
        assert set(timings) == {"abstraction", "synthesis", "total"}
        assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]


@pytest.mark.parametrize(
    "doc, extra",
    [
        ({**DCDC_SAFE, "algorithm": "bogus"}, []),
        (DCDC_SAFE, ["--algorithm", "lazy-reach"]),
        (UNICYCLE_REACH, ["--algorithm", "lazy-safe"]),
        (DCDC_SAFE, ["--layers", "0"]),
    ],
    ids=["unknown-algorithm", "reach-on-safety", "safety-on-reach", "bad-layers"],
)
def test_config_errors_exit_1_and_name_the_field(tmp_path, capsys, doc, extra):
    config = write_config(tmp_path, doc)
    argv = ["synthesize", "--config", config, "--out", str(tmp_path / "out"), *extra]
    assert cli.main(argv) == 1
    field = "layers" if "--layers" in extra else "algorithm"
    assert capsys.readouterr().err.startswith(f"configuration error: {field}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", [SAFETY, REACH_AVOID])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_config_rejects_an_algorithm_exactly_when_synthesis_does(algorithm, kind):
    doc = {**(DCDC_SAFE if kind == SAFETY else UNICYCLE_REACH), "algorithm": algorithm}
    sys_, stack, spec = random_problem(606, kind=kind, levels=2)
    try:
        synthesize(sys_, stack, spec, algorithm)
    except ValueError:
        with pytest.raises(ConfigError, match="^algorithm: "):
            parse_config(doc)
    else:
        assert parse_config(doc).algorithm == algorithm


def test_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["synthesize", "--config", str(tmp_path / "absent.json")]) == 1
    assert "config file not found" in capsys.readouterr().err


def test_algorithm_choices_are_the_synthesis_algorithms(capsys):
    with pytest.raises(SystemExit):
        cli.main(["synthesize", "--help"])
    assert "{" + ",".join(ALGORITHMS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, message",
    [(["--runs", "0"], "runs must be >= 1"), (["--horizon", "-1"], "horizon must be >= 0"),
     (["--seed", "-1"], "seed must be >= 0"), (["--seed", str(2**64)], "seed must be < 2**64")],
    ids=["runs", "horizon", "seed", "seed-too-large"],
)
def test_bad_validation_arguments_exit_1_and_name_them(tmp_path, capsys, extra, message):
    # checked before the controller is loaded: there is none to load
    config = write_config(tmp_path, DCDC_SAFE)
    args = ["--controller", str(tmp_path / "absent.mlc"), "--config", config]
    assert cli.main(["validate", *args, *extra]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("content", [None, b"LSMCjunk"], ids=["missing", "malformed"])
def test_bad_controller_file_exits_1_and_names_it(tmp_path, capsys, content):
    config = write_config(tmp_path, DCDC_SAFE)
    path = tmp_path / "absent.mlc"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["validate", "--controller", str(path), "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read controller file {path}: ")


def hand_built_controller(tmp_path, doc, kind):
    """A one-cell controller on the grid of the config ``doc``, saved."""
    stack = parse_config(doc).build_stack()
    stage = LayerController(1, [0], [[True]], [1] if kind == REACH_AVOID else None)
    path = tmp_path / "hand.mlc"
    ctrl.save(MultiLayeredController(kind, stack, [stage]), path)
    return str(path)


@pytest.mark.parametrize(
    "source, config, fields",
    [
        ((UNICYCLE_LAZY, REACH_AVOID), {**UNICYCLE_LAZY, "eta1": [0.4] * 3, "tau1": 0.9},
         ["eta1", "tau1"]),
        ((DCDC_SAFE, SAFETY), DCDC_REACH, ["spec"]),
        ((DCDC_SAFE, SAFETY), {**DCDC_SAFE, "layers": 2, "y_upper": [1.55, 5.86]},
         ["layers", "y_upper"]),
    ],
    ids=["unicycle-grid", "dcdc-spec", "dcdc-layers-and-region"],
)
def test_controller_of_another_problem_is_a_config_error(tmp_path, capsys, source, config, fields):
    controller = hand_built_controller(tmp_path, *source)
    report = tmp_path / "report.json"
    argv = ["validate", "--controller", controller, "--config", write_config(tmp_path, config),
            "--out", str(report)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    named = [part.split(":")[0] for part in err.removeprefix("configuration error: ").split("; ")]
    assert named == fields
    assert not report.exists()


def test_zero_trajectory_validation_is_flagged(tmp_path, capsys):
    config = write_config(tmp_path, DCDC_SAFE)
    path = tmp_path / "empty.mlc"
    stack = load_config(config).build_stack()
    ctrl.save(MultiLayeredController("safe", stack, []), path)
    report = tmp_path / "report.json"
    argv = ["validate", "--controller", str(path), "--config", config, "--out", str(report)]
    assert cli.main(argv) == 0
    assert "warning: validation executed 0 trajectories" in capsys.readouterr().err
    assert json.loads(report.read_text(encoding="utf-8"))["executed"] == 0


def test_shipped_dcdc_desk_wins_on_several_layers():
    config = parse_config(default_config("dcdc-desk"))
    sys_, stack, spec = config.build_system(), config.build_stack(), config.build_spec()
    result = synthesize(sys_, stack, spec, config.algorithm, m=config.m, substeps=config.substeps)
    assert result.winning.count() == 5393
    assert len({st.layer for st in result.controller.stages}) >= 2
    report = validate(result.controller, sys_, spec, 30, 100, 3, substeps_base=config.substeps)
    assert report.executed == 30 and report.violations == 0


def test_target_only_winning_set_is_flagged(tmp_path, capsys):
    # The shipped unicycle-desk reach box never fits inside the target,
    # so only the target cells are won and no stage is built.
    config = write_config(tmp_path, default_config("unicycle-desk"))
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", config, "--out", str(out)]) == 0
    assert "warning: winning set is the target alone; no stages" in capsys.readouterr().err
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["winning_layer1_cells"] == 2048 and stats["stages"] == []
    assert stats["flags"] == ["target-only"]
    assert cli.main(["stats", "--in", str(out)]) == 0
    assert "flags: target-only" in capsys.readouterr().out


def test_empty_winning_set_is_flagged(tmp_path, capsys):
    # An obstacle over the whole region leaves no safe cell.
    whole = {"lower": DCDC_SAFE["y_lower"], "upper": DCDC_SAFE["y_upper"]}
    config = write_config(tmp_path, {**DCDC_SAFE, "obstacle_boxes": [whole]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that escapes would be a second report
        assert cli.main(["synthesize", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == ["warning: winning set is empty"]
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["winning_layer1_cells"] == 0 and stats["flags"] == ["empty-winning-set"]
    assert cli.main(["stats", "--in", str(out)]) == 0
    assert "flags: empty-winning-set" in capsys.readouterr().out



def test_non_finite_tau1_is_a_config_error(tmp_path, capsys):
    doc = {**DCDC_SAFE, "tau1": float("nan")}
    with pytest.raises(ConfigError, match="tau1"):
        parse_config(doc)
    config = write_config(tmp_path, doc)  # written as the JSON token NaN
    assert cli.main(["synthesize", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_disturbance_is_a_config_error(tmp_path, capsys, bad):
    doc = {**DCDC_SAFE, "dynamics_params": {"disturbance": [bad, 0.001]}}
    config = write_config(tmp_path, doc)  # written as the JSON token NaN or Infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["synthesize", "--config", config, "--out", str(tmp_path / "out")]) == 1
        args = ["--controller", str(tmp_path / "absent.mlc"), "--config", config]
        assert cli.main(["validate", *args]) == 1
    message = "configuration error: dynamics_params: disturbance bound must be finite"
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "out").exists()


def test_non_finite_growth_matrix_is_a_config_error(tmp_path, capsys):
    # the JSON token NaN makes both dcdc growth matrices NaN
    config = write_config(tmp_path, {**DCDC_SAFE, "dynamics_params": {"rl": float("nan")}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["synthesize", "--config", config, "--out", str(tmp_path / "out")]) == 1
    message = "configuration error: dynamics_params: growth matrix must be finite"
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("layers", ["64", "100000000000"])
def test_impossible_level_count_exits_1(tmp_path, capsys, layers):
    config = write_config(tmp_path, DCDC_SAFE)
    argv = ["synthesize", "--config", config, "--out", str(tmp_path / "out"), "--layers", layers]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: layers: levels = {layers} ")


def test_substeps_beyond_the_bound_exit_1(tmp_path, capsys):
    # a billion RK4 substeps per reach box would keep synthesis running on
    doc = {**DCDC_SAFE, "substeps": 10**9}
    with pytest.raises(ConfigError, match="^substeps: must be at most "):
        parse_config(doc)
    config = write_config(tmp_path, doc)
    assert cli.main(["synthesize", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: substeps: ")
    assert not (tmp_path / "out").exists()


def test_grid_of_another_dimension_than_the_state_exits_1(tmp_path, capsys):
    doc = {**DCDC_SAFE, "eta1": [0.005] * 3, "y_lower": [1.15, 5.45, 0.0],
           "y_upper": [1.55, 5.85, 0.4]}
    config = write_config(tmp_path, doc)
    assert cli.main(["synthesize", "--config", config, "--out", str(tmp_path / "out")]) == 1
    args = ["--controller", str(tmp_path / "absent.mlc"), "--config", config]
    assert cli.main(["validate", *args]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error: layers: grid dimension 3 is not dcdc's 2") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content",
    [b'{"levels": 3', b"[1, 2]", b'"stats"', b"\xff\xfe{}", b'{"levels": "x"}',
     b'{"levels": 2, "transitions_per_layer": 5}', b'{"levels": 1, "stages": [1]}',
     b'{"levels": 1000000000, "transitions_per_layer": [1, 2]}', b'{"levels": -1}',
     b'{"levels": true, "cpre_evals": [1]}', b'{"levels": 0, "flags": "target-only"}',
     b'{"levels": 0, "flags": ["unknown"]}', b'{"levels": 0, "flags": [[1]]}'],
    ids=["not-json", "list", "string", "not-utf8", "string-levels", "number-counters",
         "number-stage", "levels-past-counters", "negative-levels", "bool-levels",
         "string-flags", "unknown-flag", "list-flag"],
)
def test_unreadable_stats_file_exits_1(tmp_path, capsys, content):
    # rejected before a line is made, so the command below cannot print on
    with pytest.raises((ValueError, TypeError, KeyError)):
        cli._stats_report(json.loads(content.decode("utf-8")))
    (tmp_path / "stats.json").write_bytes(content)
    assert cli.main(["stats", "--in", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"cannot read {tmp_path / 'stats.json'}: ")


@pytest.mark.parametrize(
    "content", [None, b"\xff\xfe{}", b"{\"layers\": 3", b"[" * 100_000],
    ids=["directory", "not-utf8", "not-json", "nested-too-deep"],
)
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match="^cannot read config file "):
        read_config(path)
    assert cli.main(["synthesize", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    args = ["--controller", str(tmp_path / "absent.mlc"), "--config", str(path)]
    assert cli.main(["validate", *args]) == 1
    assert capsys.readouterr().err.count("configuration error: cannot read config file ") == 2
