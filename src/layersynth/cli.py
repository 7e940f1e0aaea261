"""Command-line driver: synthesize controllers, validate them, print stats.

``synthesize`` applies its ``--algorithm``/``--layers``/``--m`` overrides
to the raw config document before validating it, so an override is
checked like a config field.  Its outputs are the layer-1 winning set and
per-layer stage domains as CSV, the serialized controller, ``stats.json``
(exact counters) and ``timings.json`` (wall times of disjoint phases,
plus their ``total``).  Degenerate outcomes (an empty winning set, a
winning set that is the target alone with no stages, a validation that
ran no trajectory) are flagged on stderr.

Exit codes: 0 success, 1 configuration error, 2 synthesis error,
3 validation found violations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

from . import controller as ctrl
from . import synthesis
from .config import ConfigError, ProblemConfig, load_config, parse_config, read_config
from .grid import CellSet, export_cellset_csv


def run_synthesis(config: ProblemConfig, out_dir: Path) -> dict:
    """Synthesize per the configuration and write all output files."""
    sys_ = config.build_system()
    stack = config.build_stack()
    spec = config.build_spec()
    t0 = time.perf_counter()
    result = synthesis.synthesize(
        sys_, stack, spec, config.algorithm, m=config.m, substeps=config.substeps
    )
    total = time.perf_counter() - t0
    out_dir.mkdir(parents=True, exist_ok=True)

    export_cellset_csv(stack, result.winning, out_dir / "winning_layer1.csv")
    for l in range(1, stack.levels + 1):
        dom = CellSet.empty(stack, l)
        for stage in result.controller.stages:
            if stage.layer == l:
                dom.bits[stage.cells] = True
        export_cellset_csv(stack, dom, out_dir / f"domain_layer{l}.csv")
    ctrl.save(result.controller, out_dir / "controller.mlc")

    stats = result.stats.to_dict()
    stats["config"] = config.to_dict()
    stats["winning_layer1_cells"] = result.winning.count()
    stats["stages"] = [
        {"layer": s.layer, "stage": p, "cells": s.cells.size}
        for p, s in enumerate(result.controller.stages)
    ]
    with open(out_dir / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    timings = dict(result.stats.timings)
    timings["total"] = total
    with open(out_dir / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.winning.is_empty():
        print("warning: winning set is empty", file=sys.stderr)
    elif not result.controller.stages:
        print("warning: winning set is the target alone; no stages", file=sys.stderr)
    print(
        f"{config.algorithm}: winning layer-1 cells = {result.winning.count()}, "
        f"stages = {len(result.controller.stages)}, wall = {total:.2f}s"
    )
    return stats


def run_validation(
    controller_path: Path, config: ProblemConfig, runs: int, horizon: int, seed: int, out: Path | None
) -> ctrl.ValidationReport:
    mlc = ctrl.load(controller_path)
    sys_ = config.build_system()
    spec = config.build_spec()
    report = ctrl.validate(mlc, sys_, spec, runs, horizon, seed, substeps_base=config.substeps)
    payload = report.to_dict()
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if report.executed == 0:
        print("warning: validation executed 0 trajectories", file=sys.stderr)
    return report


def _cmd_synthesize(args) -> int:
    try:
        raw = read_config(args.config)
        for key in ("algorithm", "layers", "m"):
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
        config = parse_config(raw)
        out_dir = Path(args.out or config.out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        run_synthesis(config, out_dir)
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        print(f"synthesis error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_validation(
            Path(args.controller),
            config,
            args.runs,
            args.horizon,
            args.seed,
            Path(args.out) if args.out else None,
        )
    except Exception as exc:  # noqa: BLE001
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return 3 if report.violations else 0


# Per-layer counters of ``stats.json``: printed name -> field.
_PER_LAYER = {"transitions": "transitions_per_layer", "cpre_evals": "cpre_evals",
              "fp_iterations": "fp_iterations"}


def _stats_report(stats) -> Iterator[str]:
    """The lines ``layersynth stats`` prints.  Raises ``TypeError``,
    ``ValueError`` or ``KeyError`` on a bad field before a line is made."""
    if not isinstance(stats, dict):
        raise TypeError("not a JSON object")
    levels = stats.get("levels", 0)
    columns = {name: stats.get(key, []) for name, key in _PER_LAYER.items()}
    if not all(isinstance(c, list) for c in columns.values()):
        raise TypeError(f"{', '.join(_PER_LAYER.values())} must be lists")
    longest = max(len(c) for c in columns.values())
    if type(levels) is not int or not 0 <= levels <= longest:
        raise ValueError(f"levels must be an integer from 0 to {longest}")
    layers = range(1, levels + 1)
    stages = [f"  stage {s['stage']}: layer {s['layer']}, {s['cells']} cells"
              for s in stats.get("stages", [])]
    head = [f"layers: {levels}",
            f"layer-1 winning cells: {stats.get('winning_layer1_cells')}"]
    rows = (f"  layer {l}: " + " ".join(f"{n}={c[l - 1] if l <= len(c) else 0}"
                                       for n, c in columns.items()) for l in layers)
    return chain(head, rows, stages)


def _cmd_stats(args) -> int:
    path = Path(args.indir) / "stats.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _stats_report(json.load(fh))
    # unreadable, not UTF-8, not JSON or a field of the wrong type
    except (OSError, ValueError, RecursionError, TypeError, KeyError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layersynth",
        description="Multi-resolution symbolic controller synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="run controller synthesis from a config")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--algorithm", choices=synthesis.ALGORITHMS)
    p_syn.add_argument("--layers", type=int)
    p_syn.add_argument("--m", type=int)
    p_syn.add_argument("--out")
    p_syn.set_defaults(func=_cmd_synthesize)

    p_val = sub.add_parser("validate", help="Monte Carlo closed-loop validation")
    p_val.add_argument("--controller", required=True)
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--runs", type=int, default=100)
    p_val.add_argument("--horizon", type=int, default=200)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out")
    p_val.set_defaults(func=_cmd_validate)

    p_stats = sub.add_parser("stats", help="pretty-print a stats file")
    p_stats.add_argument("--in", dest="indir", required=True)
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
