import numpy as np
import pytest
from hypothesis import settings

from wehrl import verify

# the property tests draw the same examples on every run and keep no
# example database, so a run passes or fails the same way each time
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def fresh_group_checks():
    """Each test computes run_checks' group-level checks afresh.

    A test that patches a check or its helper and then calls run_checks
    would otherwise read an earlier test's memo.
    """
    verify._group_checks.cache_clear()
