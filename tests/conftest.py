import tracemalloc

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
