import pytest

from campana import places

#: Tests that take minutes on the pure-Python kernel backend; each still
#: runs in a plain `pytest`, and `pytest -m "not slow"` leaves them out.
SLOW = {"test_acceptance.py::test_criterion_7_combiner_soundness"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("/")[-1] in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def _empty_omega_memo():
    """Each test starts with the memos of places empty (omega's, the
    oracle's and the pair scan's), so a test that counts the work they save
    sees the same counts in any test order."""
    places.omega.cache_clear()
    places.hilbert_oracle.cache_clear()
    places._pair.cache_clear()
