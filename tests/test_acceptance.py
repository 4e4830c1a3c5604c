"""Acceptance gate: every check of `verify.SUITES` at its fixed scale.

The cases are read from the table, so a check added to a suite runs here
with no edit.  Everything is exact integer arithmetic, so every
comparison is at zero tolerance.  Run `pytest tests/test_acceptance.py
-v` for one line per check, with ids `suite-check_name`.
"""

import pytest

from fibtree.verify import SUITES

CASES = [(suite, check) for suite, checks in SUITES.items() for check in checks]


@pytest.mark.parametrize("suite, check", CASES, ids=[f"{s}-{c.__name__}" for s, c in CASES])
def test_check_passes(suite, check):
    failures = check()
    assert failures == [], f"{suite}: {failures[:10]}"
