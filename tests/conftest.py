"""Shared test plumbing: the acceptance-criterion recorder and call logs.

Each acceptance test registers one line through the `criteria` fixture; the
lines are replayed in the terminal summary so the per-criterion verdicts are
visible even under output capture.  `factor_calls` and `series_calls` log
the factorizations and height series a test runs.
"""

import sys
import time

import pytest


class CriterionRecorder:
    def __init__(self):
        self.lines = []

    def check(self, number: int, description: str, fn, budget: float | None = None):
        """Run fn, record one PASS/FAIL line, enforce the runtime budget."""
        t0 = time.perf_counter()
        try:
            fn()
            elapsed = time.perf_counter() - t0
            if budget is not None and elapsed > budget:
                raise AssertionError(
                    f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
                )
        except BaseException:
            elapsed = time.perf_counter() - t0
            self.lines.append(
                f"FAIL  criterion {number:2d}: {description} ({elapsed:.2f}s)"
            )
            raise
        self.lines.append(
            f"PASS  criterion {number:2d}: {description} ({elapsed:.2f}s)"
        )


_recorder = CriterionRecorder()


@pytest.fixture(scope="session")
def criteria():
    return _recorder


def pytest_terminal_summary(terminalreporter):
    if _recorder.lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_recorder.lines, key=lambda s: s.split(":")[0]):
            terminalreporter.write_line(line)


def _logging(real, log, entry):
    def wrapper(*args, **kwargs):
        log.append(entry(*args))
        return real(*args, **kwargs)

    return wrapper


@pytest.fixture
def factor_calls(monkeypatch) -> list:
    """The argument of every factor call from now on."""
    from biquadrank.arith import factor

    factored = []
    # modules import factor by name, so patch every binding of it
    for name, mod in list(sys.modules.items()):
        if name.startswith("biquadrank") and getattr(mod, "factor", None) is factor:
            monkeypatch.setattr(mod, "factor", _logging(factor, factored, lambda n, *_: n))
    return factored


@pytest.fixture
def series_calls(monkeypatch) -> list:
    """(x, y) of the point of every height series from now on."""
    from biquadrank import heights

    series = []
    monkeypatch.setattr(heights, "_series_height",
                        _logging(heights._series_height, series, lambda E, P, *_: (P.x, P.y)))
    return series
