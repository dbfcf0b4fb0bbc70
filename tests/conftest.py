import sys

import pytest


@pytest.fixture(autouse=True)
def digit_limit_left_as_found():
    """Fail any test that leaves Python's int-to-string digit limit changed."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    yield
    after = sys.get_int_max_str_digits()
    if after != before:
        pytest.fail(f"the int-to-string digit limit went from {before} to {after}")
