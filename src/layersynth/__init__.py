"""Multi-resolution symbolic controller synthesis.

Builds finite abstractions of perturbed continuous-time systems on a
stack of grids of doubling coarseness, solves safety and reach-avoid
games over them (optionally exploring transitions lazily along the
synthesis frontier), and refines winning strategies into sample-and-hold
controllers validated by closed-loop simulation.
"""

from .abstraction import BLOCKED, TransitionTable, UnexploredTransitionError
from .benchmarks import build_system, dcdc, default_config, unicycle
from .config import ConfigError, ProblemConfig, load_config, parse_config
from .controller import (
    ControllerFormatError,
    LayerController,
    MultiLayeredController,
    TrajectoryLog,
    ValidationReport,
    check_rank_progress,
    simulate,
    validate,
)
from .dynamics import (
    ControlSystem,
    IntegrationDivergenceError,
    ReachBox,
    integrate_nominal,
    over_approx_reach,
    sample_disturbed_step,
)
from .grid import (
    CellId,
    CellSet,
    LayerMismatchError,
    LayerStack,
    cells_inside_box,
    cells_intersecting_box,
    export_cellset_csv,
    gamma_down,
    gamma_up,
)
from .problem import ProblemSpec, SpecSets, build_spec_sets
from .synthesis import (
    ALGORITHMS,
    NonterminationError,
    SynthesisEngine,
    SynthesisResult,
    SynthesisStats,
    cpre,
    synthesize,
    upre,
    upre_m,
)

__all__ = [
    "ALGORITHMS",
    "BLOCKED",
    "CellId",
    "CellSet",
    "ConfigError",
    "ControlSystem",
    "ControllerFormatError",
    "IntegrationDivergenceError",
    "LayerController",
    "LayerMismatchError",
    "LayerStack",
    "MultiLayeredController",
    "NonterminationError",
    "ProblemConfig",
    "ProblemSpec",
    "ReachBox",
    "SpecSets",
    "SynthesisEngine",
    "SynthesisResult",
    "SynthesisStats",
    "TrajectoryLog",
    "TransitionTable",
    "UnexploredTransitionError",
    "ValidationReport",
    "build_spec_sets",
    "build_system",
    "cells_inside_box",
    "cells_intersecting_box",
    "check_rank_progress",
    "cpre",
    "dcdc",
    "default_config",
    "export_cellset_csv",
    "gamma_down",
    "gamma_up",
    "integrate_nominal",
    "load_config",
    "over_approx_reach",
    "parse_config",
    "sample_disturbed_step",
    "simulate",
    "synthesize",
    "unicycle",
    "upre",
    "upre_m",
    "validate",
]
