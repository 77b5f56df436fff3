import contextlib
import tracemalloc
import warnings

import pytest

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Record a one-line verdict that survives output capture."""
    def record(name: str, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        _ACCEPTANCE_LINES.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))
        assert passed, f"{name}: {detail}"
    return record


@pytest.fixture
def traced_peak():
    """Run ``fn()`` and return (its result, the peak bytes it allocated above
    what was allocated before it), as tracemalloc counts them; NumPy reports
    its array buffers to tracemalloc."""
    def measure(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return measure


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Import Hypothesis's patch writer, which its pytest plugin imports to
    report a falsifying example, with the DeprecationWarning that libcst
    raises on import ignored: the suite turns that warning into an error,
    and a failing property test would end in an INTERNALERROR instead."""
    if call.excinfo is not None and getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings(), contextlib.suppress(ImportError):
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
    yield
