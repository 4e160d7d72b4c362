import os

import numpy as np
import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci prints, for each failing property, the blob that
# @reproduce_failure takes to replay the failing example
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
