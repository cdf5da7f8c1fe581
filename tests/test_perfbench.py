"""The benchmark's operations run unedited against the package.

`perfbench/workloads.py` calls the layer modules' public functions in the
forms `analyze` once used.  Running its `algebraic` operations for one seed
and the 9- and 19-digit `ladder` operations here makes a change to one of
those call forms, or to a recorded Gram determinant, fail the test suite,
not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
LAYERS, PACKAGE_ERROR = workloads.load_layers()
# bands are built in order of size: the first two ladder operations are the
# 9- and 19-digit ones
OPS = workloads.build("algebraic", 1) + workloads.build("ladder", 1)[:2]


def test_package_imports():
    assert PACKAGE_ERROR is None


@pytest.mark.parametrize("op", OPS, ids=[op.label for op in OPS])
def test_operation_passes_its_checks(op):
    op.run(LAYERS)
