"""Benchmark of layersynth synthesis and closed-loop validation.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each iteration is one fresh,
single-threaded Python process (``child.py``) that sets up, calls
``layersynth.cli.main(["synthesize", ...])`` and then ``["validate",
...]``; iterations run one after another while another one fits in
``--seconds``.  The seed drives only the validation start states and
disturbances.  With ``--trace 0`` the run reports the end-to-end
metrics, the median over its iterations.  With ``--trace 1`` it
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Every iteration
passes through the correctness gate of :func:`gate_failures`.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  All files go to a temporary
directory under ``.bench_tmp/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads"
TMP_ROOT = ROOT / ".bench_tmp"
CHILD_TIMEOUT_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "synth_s": "s",
    "sim_steps_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "winning_cells": "count",
}

# Per-layer counts that come from the program's outputs, not from spans.
OUTPUT_COUNTS = {
    "controller.bytes": "controller_bytes",
    "controller.stages": "stages",
    "controller.layers_used": "layers_used",
    "synthesis.fp_iterations": "fp_iterations",
    "synthesis.layer_switches": "layer_switches",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark: the package does not import."""


def layer_unit(name: str) -> str:
    if name == "trace_overhead":
        return "ratio"
    if re.search(r"_s(\.l\d+)?$", name):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name in ("abstraction.bytes_per_pair", "controller.bytes"):
        return "B"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def check_checkout(env: dict, tmp: Path) -> None:
    """Import the package from this checkout's sources once (warms caches)."""
    if not (SRC / "layersynth" / "__init__.py").is_file():
        raise SetupError(f"no layersynth sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import layersynth.cli, layersynth; print(layersynth.__file__)"],
        env={**env, "TMPDIR": str(tmp)},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise SetupError(f"cannot import layersynth:\n{probe.stderr.strip()}")
    if Path(probe.stdout.strip()).resolve().parent != (SRC / "layersynth").resolve():
        raise SetupError(f"layersynth resolved outside this checkout: {probe.stdout.strip()}")


def gate_failures(result: dict, reach: bool) -> tuple[int, int, list[str]]:
    """Correctness gate of one iteration: (attempted, failed, failed checks).

    Attempted counts the requested trajectories plus one per check;
    failed counts violating or never-run trajectories plus failed checks.
    """
    runs = int(result.get("runs", 0))
    report = result.get("report") or {}
    executed = int(report.get("executed", 0))
    checks = {
        "synthesize exited 0": result.get("synth_rc") == 0,
        "validate exited 0 with no violations": result.get("validate_rc") == 0
        and report.get("violations", 1) == 0,
        "every requested trajectory executed": executed == runs,
        "controller has stages on at least 2 layers": result.get("stages", 0) >= 1
        and result.get("layers_used", 0) >= 2,
    }
    if reach:
        checks["rank measure decreases on every run"] = report.get("rank_monotone") is True
    failed_checks = [name for name, ok in checks.items() if not ok]
    bad_runs = min(runs, (runs - executed) + int(report.get("violations", 0)))
    return runs + len(checks), bad_runs + len(failed_checks), failed_checks


def e2e_values(result: dict) -> dict[str, float]:
    report = result.get("report") or {}
    steps = report.get("executed", 0) * report.get("mean_steps", 0.0)
    out = {
        "setup_s": result["setup_s"],
        "synth_s": result["synth_s"],
        "total_s": result["setup_s"] + result["synth_s"] + result["validate_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_steps_per_s": steps / result["validate_s"] if result["validate_s"] > 0 else 0.0,
    }
    if result.get("winning_cells") is not None:
        out["winning_cells"] = result["winning_cells"]
    return out


def run_child(workload_path: Path, tmp: Path, tag: str, seed: int, traced: bool, env: dict) -> dict | None:
    work = tmp / tag
    work.mkdir()
    log = work / "child.log"
    with open(log, "w", encoding="utf-8") as fh:
        argv = [str(HERE / "child.py"), str(workload_path), str(work), str(seed), str(int(traced))]
        proc = subprocess.run(
            [sys.executable, *argv],
            env={**env, "TMPDIR": str(work)},
            stdout=fh,
            stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-20:]
        print(f"iteration {tag} exited {proc.returncode}:\n" + "\n".join(tail), file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def median_of(rows: list[dict], key: str) -> float | None:
    values = [r[key] for r in rows if key in r]
    return statistics.median(values) if values else None


def run_benchmark(workload_path: Path, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Run iterations of one workload file until ``seconds`` have passed."""
    spec = json.loads(workload_path.read_text(encoding="utf-8"))
    reach = spec["config"]["spec"] == "reach-avoid"
    env = child_env()
    check_checkout(env, tmp)

    attempted = failed = 0
    plain: list[dict] = []
    traced: list[dict] = []
    outputs: set[tuple] = set()
    absent: set[str] = set()
    # An iteration starts only if one as long as the last still fits
    # before the deadline, so a run takes --seconds, not one more.
    deadline = time.perf_counter() + seconds
    last = 0.0
    k = 0
    while k == 0 or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        val_seed = abs(seed) * 1000 + k
        for is_traced in (False, True) if trace else (False,):
            tag = f"{k}-{'traced' if is_traced else 'plain'}"
            result = run_child(workload_path, tmp, tag, val_seed, is_traced, env)
            result = result or {"runs": spec["runs"]}
            n, bad, checks = gate_failures(result, reach)
            attempted += n
            failed += bad
            for check in checks:
                print(f"iteration {tag}: gate failed: {check}", file=sys.stderr)
            if "setup_s" not in result:
                continue
            outputs.add((result.get("winning_cells"), result.get("controller_bytes")))
            row = e2e_values(result)
            if is_traced:
                row.update(result.get("layers", {}))
                for metric, key in OUTPUT_COUNTS.items():
                    if key in result:
                        row[metric] = result[key]
                absent.update(result.get("absent", []))
                traced.append(row)
            else:
                plain.append(row)
            shown = " ".join(f"{m}={row[m]:.6g}" for m in E2E_UNITS if m in row)
            print(f"iteration {tag}: {shown}", file=sys.stderr)
        last = time.perf_counter() - started
        k += 1

    metrics: dict[str, dict] = {}
    if trace:
        names = sorted({m for row in traced for m in row if m not in E2E_UNITS})
        for name in names:
            metrics[name] = {"value": median_of(traced, name), "unit": layer_unit(name)}
        plain_total, traced_total = median_of(plain, "total_s"), median_of(traced, "total_s")
        if plain_total and traced_total:
            metrics["trace_overhead"] = {"value": traced_total / plain_total, "unit": "ratio"}
    else:
        for name, unit in E2E_UNITS.items():
            value = median_of(plain, name)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    consistent = len(outputs) == 1
    if len(outputs) > 1:
        print(f"(winning cells, controller bytes) differ between iterations: {outputs}", file=sys.stderr)
    return {
        "iterations": k,
        "violation_rate": failed / attempted if attempted else 1.0,
        "absent": sorted(absent),
        "result": {
            "correct": failed == 0 and consistent,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload_path = WORKLOADS / f"{args.workload}.json"
    if not workload_path.is_file():
        known = sorted(p.stem for p in WORKLOADS.glob("*.json"))
        print(f"unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        out = run_benchmark(workload_path, args.seed, args.seconds, bool(args.trace), tmp)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    result = out["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'iterations':36s} {out['iterations']:>16d}")
    print(f"{'violation_rate':36s} {out['violation_rate']:>16.6g} failed/attempted")
    if out["absent"]:
        print("absent trace targets: " + ", ".join(out["absent"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
