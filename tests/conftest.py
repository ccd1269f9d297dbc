import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from horizon import TimeGrid, bump_kernel, poisson_signal

# canonical desk-scale configuration shared across the suite
CANON = dict(T=0.5, theta=0.1, r=2.0, a=1.5)


@pytest.fixture(scope="session")
def canonical_kernel():
    return bump_kernel(CANON["T"], CANON["theta"])


@pytest.fixture(scope="session")
def canonical_signal():
    return poisson_signal(CANON["a"])


@pytest.fixture(scope="session")
def canonical_tgrid():
    return TimeGrid(-2.0, 2.0, 41)


@pytest.fixture(scope="session")
def unit_bump():
    return bump_kernel(1.0, 1.0)
