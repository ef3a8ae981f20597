import numpy as np
import pytest
from hypothesis import settings

# the property tests draw the same examples on every run and keep no
# example database, so a run passes or fails the same way each time
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
