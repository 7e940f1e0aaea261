"""The package's export list."""

import layersynth


def test_every_exported_name_resolves():
    missing = [name for name in layersynth.__all__ if not hasattr(layersynth, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(layersynth.__all__)) == len(layersynth.__all__)
