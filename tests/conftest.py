"""Fixtures shared by the test modules: the 6-agent network, its cost
weights and gain structure A. Each object is frozen and holds read-only
arrays, so one instance serves the whole session."""

import numpy as np
import pytest

from helpers import NETWORK_A, ZEROS_A
from structlqr import CostWeights, LtiSystem, SparsityMask


@pytest.fixture(scope="session")
def network():
    return LtiSystem(A=NETWORK_A, B=np.eye(6))


@pytest.fixture(scope="session")
def weights():
    return CostWeights(Q=30.0 * np.eye(6), R=np.eye(6))


@pytest.fixture(scope="session")
def mask_a():
    return SparsityMask.from_zero_positions(6, 6, ZEROS_A)
