import pytest

from campana import formulas, places

#: Tests that take minutes on the pure-Python kernel backend; each still
#: runs in a plain `pytest`, and `pytest -m "not slow"` leaves them out.
SLOW = {"test_acceptance.py::test_criterion_7_combiner_soundness"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("/")[-1] in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test starts with the memos of places empty (omega's, the
    oracle's and the pair scan's), and those of the formula builders that
    take no n, so a test that counts the work they save, or the formulas a
    build makes, sees the same counts in any test order."""
    places.omega.cache_clear()
    places.hilbert_oracle.cache_clear()
    places._pair.cache_clear()
    for target in formulas.TARGETS.values():
        if not target.takes_n:
            target.builder.cache_clear()
