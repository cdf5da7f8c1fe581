"""The public API list, the package version and what importing loads."""

import os
import subprocess
import sys
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


def test_import_leaves_executor_and_logging_unloaded():
    # every CLI call pays for the import: the search imports its thread pool
    # from `concurrent.futures`, which pulls in `logging` (about 12 ms), only
    # when it runs, so the import itself loads neither module
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import sys, biquadrank; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
