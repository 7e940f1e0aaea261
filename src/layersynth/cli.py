"""Command-line driver: synthesize controllers, validate them, print stats.

``synthesize`` applies its ``--algorithm``/``--layers``/``--m`` overrides
to the raw config document before validating it, so an override is
checked like a config field.  Its outputs are the layer-1 winning set and
per-layer stage domains as CSV, the serialized controller, ``stats.json``
(exact counters) and ``timings.json`` (wall times of disjoint phases,
plus their ``total``).  Degenerate outcomes (an empty winning set, a
winning set that is the target alone with no stages, a validation that
ran no trajectory) are flagged on stderr, one line each; a synthesis
also lists its flags (``empty-winning-set``, ``target-only``) in
``stats.json`` under ``"flags"``, and its flag is the one report of an
empty safe set or target.

``validate`` rejects bad ``--runs``, ``--horizon`` and ``--seed`` values
before it loads the controller; a controller file that is missing,
unreadable or malformed; and a controller whose header (spec kind,
levels, ``eta1``, ``tau1``, region bounds) is not the config's before it
simulates.  All of these are configuration errors.

Exit codes: 0 success, 1 configuration error (including a bad
controller file), 2 synthesis or validation error, 3 validation found
violations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

from . import controller as ctrl
from . import synthesis
from .config import ConfigError, ProblemConfig, load_config, parse_config, read_config
from .grid import CellSet, export_cellset_csv


# Degenerate synthesis outcomes: ``stats.json`` flag -> stderr warning.
_FLAGS = {
    "empty-winning-set": "winning set is empty",
    "target-only": "winning set is the target alone; no stages",
}


def run_synthesis(config: ProblemConfig, out_dir: Path) -> dict:
    """Synthesize per the configuration and write all output files."""
    sys_ = config.build_system()
    stack = config.build_stack()
    spec = config.build_spec()
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # The empty-winning-set flag below reports these outcomes.
        warnings.filterwarnings("ignore", ".* under-approximation is empty", UserWarning)
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

    if result.winning.is_empty():
        flags = ["empty-winning-set"]
    elif not result.controller.stages:
        flags = ["target-only"]
    else:
        flags = []
    stats = result.stats.to_dict()
    stats["config"] = config.to_dict()
    stats["flags"] = flags
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
    for flag in flags:
        print(f"warning: {_FLAGS[flag]}", file=sys.stderr)
    print(
        f"{config.algorithm}: winning layer-1 cells = {result.winning.count()}, "
        f"stages = {len(result.controller.stages)}, wall = {total:.2f}s"
    )
    return stats


def _check_header(mlc: ctrl.MultiLayeredController, config: ProblemConfig) -> None:
    """Raise :class:`ConfigError` naming every field of the controller's
    header that differs from the config.  The header stores the config's
    doubles, so floats are compared exactly."""
    stack = mlc.stack
    header = {"spec": mlc.kind, "layers": stack.levels, "eta1": stack.eta1.tolist(),
              "tau1": stack.tau1, "y_lower": stack.y_lower.tolist(),
              "y_upper": stack.y_upper.tolist()}
    wrong = [f"{key}: the controller has {value}, the config {getattr(config, key)}"
             for key, value in header.items() if value != getattr(config, key)]
    if wrong:
        raise ConfigError("; ".join(wrong))


def run_validation(
    controller_path: Path, config: ProblemConfig, runs: int, horizon: int, seed: int, out: Path | None
) -> ctrl.ValidationReport:
    try:
        mlc = ctrl.load(controller_path)
    except (OSError, ctrl.ControllerFormatError) as exc:
        raise ConfigError(f"cannot read controller file {controller_path}: {exc}") from exc
    _check_header(mlc, config)
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
        ctrl.check_run_arguments(args.runs, args.horizon, args.seed)
    except ValueError as exc:  # a ConfigError, or an argument out of range
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
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
    flags = stats.get("flags", [])
    if not isinstance(flags, list) or not all(f in _FLAGS for f in flags):
        raise ValueError(f"flags must be a list of {', '.join(_FLAGS)}")
    layers = range(1, levels + 1)
    stages = [f"  stage {s['stage']}: layer {s['layer']}, {s['cells']} cells"
              for s in stats.get("stages", [])]
    head = [f"layers: {levels}",
            f"layer-1 winning cells: {stats.get('winning_layer1_cells')}"]
    if flags:
        head.append(f"flags: {', '.join(flags)}")
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
    p_val.add_argument(
        "--seed", type=int, default=0,
        help="seeds every random draw; run i's start state and disturbances "
             "depend on the seed and i alone",
    )
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
