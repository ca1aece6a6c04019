"""Every test starts with no pair table kept by strongconv, as it would alone."""
import pytest

from strconvex import strongconv


@pytest.fixture(autouse=True)
def _no_kept_pair_table():
    strongconv._last_table = None
