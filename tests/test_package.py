"""The public API list, the package version, what importing loads and
what the code may import at all."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import biquadrank
from biquadrank.certificate import TOOL_VERSION


def test_every_name_in_all_resolves():
    missing = [name for name in biquadrank.__all__ if not hasattr(biquadrank, name)]
    assert missing == []


def test_root_binds_exactly_all():
    # layer functions are imported from their modules: every other public
    # name the root binds is a submodule
    public = {
        name for name, value in vars(biquadrank).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(biquadrank.__all__) - {"__version__"}
    assert len(biquadrank.__all__) == len(set(biquadrank.__all__))


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == biquadrank.__version__ == TOOL_VERSION


def test_import_leaves_executor_and_logging_unloaded():
    # every CLI call pays for the import: the search imports its thread pool
    # from `concurrent.futures`, which pulls in `logging` (about 12 ms), only
    # when it runs, so the import itself loads neither
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import sys, biquadrank; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_heights_and_reverify_run_without_mpmath():
    # mpmath is a test dependency only, for the reference series of
    # test_heights: with its import blocked, analyze with heights writes
    # its golden line, and every golden line reverifies
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from biquadrank import analyze, parse_certificate, reverify, to_json_line\n"
        "lines = open(sys.argv[1], encoding='utf-8').read().splitlines()\n"
        "print(to_json_line(analyze(ab=(2, 1))) in lines, all(reverify(parse_certificate(x)) for x in lines))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(repo / "tests" / "golden_certificates.jsonl")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True True"


def test_import_builds_no_trial_division_table():
    # the sieve and the table of 2^(40 i) mod p are built by the first
    # factor call that needs them, so every CLI call that never factors
    # skips them; then factoring the one-limb prime 2^31 - 1 builds no table
    # row and divides only by the 4,792 primes up to isqrt(2^31 - 1) = 46,340;
    # the p - 1 stage's batches (about 2 ms from the sieve) wait for the
    # first composite piece above the stage's gate
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import biquadrank.cli, biquadrank.arith as a\n"
        "print(a._sieve_primes is None, a._weights, a._pm1_batches)\n"
        "blocks, kernel = [], a._trial_divisors\n"
        "a._trial_divisors = lambda m, lo, hi: blocks.append((lo, hi)) or kernel(m, lo, hi)\n"
        "a.factor(2**31 - 1)\n"
        "tested = a._sieve_primes[: max(hi for _, hi in blocks)]\n"
        "print(a._weights, len(tested), tested[-1], a._sieve_primes[len(tested)], a._pm1_batches)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["True [] None", "[] 4792 46337 46349 None"]


def _top_level_imports(root: Path) -> set[str]:
    """The top-level module of every absolute import in root's .py files,
    imports nested in functions and branches included."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_imports_stay_within_the_declared_dependencies():
    # no run-time or tier-1 path may rely on a package pyproject does not
    # declare (sympy and scipy among them); each distribution declared here
    # installs a module of its own name
    tomllib = pytest.importorskip("tomllib")
    repo = Path(__file__).resolve().parents[1]
    project = tomllib.loads((repo / "pyproject.toml").read_text())["project"]

    def modules(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}

    allowed = set(sys.stdlib_module_names) | {"biquadrank"} | modules(project["dependencies"])
    assert _top_level_imports(repo / "src") - allowed == set()
    allowed |= modules(project["optional-dependencies"]["test"])
    assert _top_level_imports(repo / "tests") - allowed == set()
