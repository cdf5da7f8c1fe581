"""The public API list and the package version."""

from pathlib import Path

import pytest

import biquadrank
from biquadrank.certificate import TOOL_VERSION


def test_every_name_in_all_resolves():
    missing = [name for name in biquadrank.__all__ if not hasattr(biquadrank, name)]
    assert missing == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == biquadrank.__version__ == TOOL_VERSION
