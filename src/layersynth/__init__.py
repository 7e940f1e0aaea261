"""Multi-resolution symbolic controller synthesis.

Builds finite abstractions of perturbed continuous-time systems on a
stack of grids of doubling coarseness, solves safety and reach-avoid
games over them (optionally exploring transitions lazily along the
synthesis frontier), and refines winning strategies into sample-and-hold
controllers validated by closed-loop simulation.
"""

from .abstraction import TransitionTable, UnexploredTransitionError
from .benchmarks import build_system, dcdc, default_config, unicycle
from .config import ConfigError, ProblemConfig, load_config, parse_config
from .controller import (
    ControllerFormatError,
    LayerController,
    MultiLayeredController,
    ValidationReport,
    validate,
)
from .dynamics import (
    ControlSystem,
    IntegrationDivergenceError,
    integrate_nominal,
    sample_disturbed_step,
)
from .grid import (
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
    "SpecSets",
    "SynthesisEngine",
    "SynthesisResult",
    "SynthesisStats",
    "TransitionTable",
    "UnexploredTransitionError",
    "ValidationReport",
    "build_spec_sets",
    "build_system",
    "cells_inside_box",
    "cells_intersecting_box",
    "cpre",
    "dcdc",
    "default_config",
    "export_cellset_csv",
    "gamma_down",
    "gamma_up",
    "integrate_nominal",
    "load_config",
    "parse_config",
    "sample_disturbed_step",
    "synthesize",
    "unicycle",
    "upre",
    "upre_m",
    "validate",
]
