"""The acceptance-criteria scoreboard.

Acceptance tests record one line per criterion through record_criterion();
the summary hook in conftest.py prints the scoreboard at the end of every
run, so the PASS/FAIL status of each criterion is visible even without -s.
"""

CRITERIA = {}


def record_criterion(cid, description, status):
    """status is 'PASS', 'FAIL', or 'SKIP (reason)'."""
    CRITERIA[cid] = (description, status)
