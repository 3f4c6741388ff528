import os

# One BLAS thread per process, set before anything loads NumPy: at its default
# of one thread per core, OpenBLAS makes the suite's wall time (and criterion
# 6's wall-clock bounds) depend on what else the host runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_report():
    """Record one `[criterion N] PASS/FAIL` line and assert the verdict.

    Lines are echoed in a terminal-summary section because pytest's default
    fd-level capture would otherwise swallow them on passing tests.
    """

    def _report(number, ok, text):
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {number}] {verdict}: {text}"
        print(line)
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
