"""The benchmark's operations run unedited against the package.

`perfbench/workloads.py` calls the layer modules' public functions in the
forms `analyze` once used.  Running its `algebraic` operations for one seed,
the 9- and 19-digit `ladder` operations and the smallest and largest `search`
operations (base about 1,000, and about 8,000 in four windows) here makes a
change to one of those call forms, or to a recorded Gram determinant or
search hit, fail the test suite, not only the benchmark.
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
# 9- and 19-digit ones; the first search operation has the smallest base and
# the fifth the largest (base about 8,000 in 4 windows, all 24 recorded hits)
SEARCH = workloads.build("search", 1)
OPS = workloads.build("algebraic", 1) + workloads.build("ladder", 1)[:2] + [SEARCH[0], SEARCH[4]]


def test_package_imports():
    assert PACKAGE_ERROR is None


@pytest.mark.parametrize("op", OPS, ids=[op.label for op in OPS])
def test_operation_passes_its_checks(op):
    op.run(LAYERS)
