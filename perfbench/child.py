"""One benchmark iteration in a fresh process: set up, synthesize, validate.

Usage: python3 child.py WORKLOAD_JSON WORK_DIR VALIDATION_SEED TRACE(0|1)

Drives the workload through ``layersynth.cli.main`` and writes
``result.json`` into WORK_DIR: wall times measured from outside the
program, peak memory, the correctness-gate inputs read from the
program's outputs and, when TRACE is 1, the per-layer metrics of
``tracer.layer_metrics`` (the raw spans go to ``spans.json``).
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _layer_switches(trace: list) -> int:
    layers = [e["layer"] for e in trace if isinstance(e, dict) and "layer" in e]
    return sum(1 for a, b in zip(layers, layers[1:]) if a != b)


def run(workload: dict, work: Path, seed: int, traced: bool) -> dict:
    import layersynth.cli as cli
    from layersynth.config import load_config

    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload["config"], indent=1), encoding="utf-8")
    load_config(config_path)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = work / "out"
    report_path = work / "validation.json"
    runs, horizon = workload["runs"], workload["horizon"]
    t0 = time.perf_counter()
    synth_rc = cli.main(["synthesize", "--config", str(config_path), "--out", str(out)])
    t1 = time.perf_counter()
    validate_rc = None
    if synth_rc == 0:
        validate_rc = cli.main(
            [
                "validate",
                "--controller", str(out / "controller.mlc"),
                "--config", str(config_path),
                "--runs", str(runs),
                "--horizon", str(horizon),
                "--seed", str(seed),
                "--out", str(report_path),
            ]
        )
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "synth_s": t1 - t0,
        "validate_s": t2 - t1,
        "peak_rss_mb": peak_rss_mb,
        "synth_rc": synth_rc,
        "validate_rc": validate_rc,
        "runs": runs,
    }
    if synth_rc == 0:
        from layersynth.controller import load

        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        mlc = load(out / "controller.mlc")
        result["winning_cells"] = stats.get("winning_layer1_cells")
        result["stages"] = len(mlc.stages)
        result["layers_used"] = len({st.layer for st in mlc.stages})
        result["controller_bytes"] = (out / "controller.mlc").stat().st_size
        if "fp_iterations" in stats:
            result["fp_iterations"] = sum(stats["fp_iterations"])
        if "trace" in stats:
            result["layer_switches"] = _layer_switches(stats["trace"])
    if validate_rc is not None and report_path.exists():
        result["report"] = json.loads(report_path.read_text(encoding="utf-8"))
    if tracer is not None:
        from tracer import layer_metrics

        (work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["layers"] = layer_metrics(tracer.spans, tracer.wrapped)
        result["absent"] = tracer.absent
    return result


def main(argv: list[str]) -> int:
    workload_path, work, seed, traced = argv
    workload = json.loads(Path(workload_path).read_text(encoding="utf-8"))
    work = Path(work)
    result = run(workload, work, int(seed), traced == "1")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
