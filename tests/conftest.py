import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "blowfish",
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)
settings.load_profile("blowfish")


@pytest.fixture
def digit_limit():
    """Python's default limit on the decimal digits of an int it writes out
    (4,300), whatever the environment sets, for tests of counts near it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
