import pytest

#: Tests that take minutes on the pure-Python kernel backend; each still
#: runs in a plain `pytest`, and `pytest -m "not slow"` leaves them out.
SLOW = {"test_acceptance.py::test_criterion_7_combiner_soundness"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("/")[-1] in SLOW:
            item.add_marker(pytest.mark.slow)
