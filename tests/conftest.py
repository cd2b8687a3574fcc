"""Shared pytest wiring: the slow marker and the acceptance-criteria summary."""

from criteria import CRITERIA


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running dataset-scale checks (env-gated)"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for cid in sorted(CRITERIA, key=lambda c: int(c[1:])):
        description, status = CRITERIA[cid]
        terminalreporter.write_line(f"[{cid}] {description} ... {status}")
