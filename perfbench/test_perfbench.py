"""Self-test of the benchmark: metric coverage and the correctness gate.

Run with ``python3 -m pytest perfbench``.  Each case runs one short
iteration through ``run.run_benchmark``, in a temporary directory.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))



def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("run")
tracer = _load("tracer")

# The dcdc-safe problem (synthesis takes well under a second) with a
# validation cut down to a few short runs.
TINY_DCDC = {
    **json.loads((HERE / "workloads" / "dcdc-safe.json").read_text(encoding="utf-8")),
    "runs": 5,
    "horizon": 10,
}


def _run(tmp_path: Path, workload: dict, trace: bool) -> dict:
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload), encoding="utf-8")
    work = tmp_path / ("traced" if trace else "plain")
    work.mkdir()
    return bench.run_benchmark(path, seed=0, seconds=0, trace=trace, tmp=work)


@pytest.mark.parametrize("trace, group", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_dcdc_emits_every_named_metric(tmp_path, trace, group):
    out = _run(tmp_path, TINY_DCDC, trace)
    result = out["result"]
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert out["absent"] == []


def test_gate_rejects_shipped_unicycle_desk(tmp_path):
    sys.path.insert(0, str(bench.SRC))
    try:
        from layersynth.benchmarks import default_config
    finally:
        sys.path.remove(str(bench.SRC))
    workload = {"config": default_config("unicycle-desk"), "runs": 20, "horizon": 50}
    out = _run(tmp_path, workload, trace=False)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 20 and out["violation_rate"] > 0.5


def test_gate_names_each_failed_check():
    vacuous = {
        "runs": 20,
        "synth_rc": 0,
        "validate_rc": 0,
        "stages": 0,
        "layers_used": 0,
        "report": {"executed": 0, "violations": 0, "rank_monotone": True},
    }
    attempted, failed, checks = bench.gate_failures(vacuous, reach=True)
    assert attempted == 20 + 5
    assert failed == 20 + 2
    assert checks == [
        "every requested trajectory executed",
        "controller has stages on at least 2 layers",
    ]


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(bench.SRC))
    try:
        import layersynth.abstraction  # noqa: F401
    finally:
        sys.path.remove(str(bench.SRC))
    monkeypatch.setattr(tracer, "MODULES", ())
    monkeypatch.setattr(tracer, "EXTRA_TARGETS", ("abstraction:TransitionTable.gone",))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["abstraction:TransitionTable.gone"]

    wrapped = {"synthesis.cpre", "grid.gamma_down"}
    metrics = tracer.layer_metrics([], wrapped)
    assert "abstraction.csr_s" not in metrics and "abstraction.pairs" not in metrics
    assert metrics["synthesis.cpre_calls"] == 0 and metrics["grid.gamma_calls"] == 0
