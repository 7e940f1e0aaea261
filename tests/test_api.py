"""The package's export list."""

import layersynth

# The public API, pinned: adding or dropping an export edits this set.
EXPORTS = {
    "ALGORITHMS", "CellSet", "ConfigError", "ControlSystem", "ControllerFormatError",
    "IntegrationDivergenceError", "LayerController", "LayerMismatchError", "LayerStack",
    "MultiLayeredController", "NonterminationError", "ProblemConfig", "ProblemSpec", "SpecSets",
    "SynthesisEngine", "SynthesisResult", "SynthesisStats", "TransitionTable",
    "ValidationReport", "build_spec_sets", "build_system",
    "cells_inside_box", "cells_intersecting_box", "cpre", "dcdc", "default_config",
    "export_cellset_csv", "gamma_down", "gamma_up", "load_config",
    "parse_config", "sample_disturbed_step", "synthesize", "unicycle", "upre", "upre_m",
    "validate",
}


def test_exports_are_the_pinned_api():
    assert set(layersynth.__all__) == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in layersynth.__all__ if not hasattr(layersynth, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(layersynth.__all__)) == len(layersynth.__all__)
