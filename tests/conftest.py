import numpy as np
import pytest

from possys import ControlOperator, GridSpace, build_upwind_generator


@pytest.fixture
def toy():
    """2-cell zero-inflow transport with q = 1, h = 1: A = [[-2,0],[1,-2]]."""
    space = GridSpace(length=2.0, cells=2)
    model = build_upwind_generator(space, 1.0)
    b = ControlOperator.boundary_injection(space)
    return space, model, b


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
