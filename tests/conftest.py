import random

import pytest

from biderlie import builtin


@pytest.fixture
def heisenberg():
    return builtin("heisenberg3")


@pytest.fixture
def rng():
    return random.Random(0)
