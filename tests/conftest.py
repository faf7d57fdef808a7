import pytest

import campana

#: The slowest tests: criterion 7 takes about 23 s of a 155 s Tier-1 on a
#: 2-core machine.  Each still runs in a plain `pytest`, and
#: `pytest -m "not slow"` leaves them out.
SLOW = {"test_acceptance.py::test_criterion_7_combiner_soundness"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("/")[-1] in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test starts with every process-wide memo empty, so a test that
    counts the work they save, or the formulas a build makes, sees the same
    counts in any test order."""
    campana.clear_memos()
