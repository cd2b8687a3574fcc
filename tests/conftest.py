"""Shared pytest wiring: the acceptance-criteria summary. The ``slow``
marker is registered in pyproject.toml."""

from criteria import CRITERIA


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for cid in sorted(CRITERIA, key=lambda c: int(c[1:])):
        description, status = CRITERIA[cid]
        terminalreporter.write_line(f"[{cid}] {description} ... {status}")
