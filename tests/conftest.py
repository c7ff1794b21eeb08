import numpy as np
import pytest

from stonework import lattice as lt
from stonework.errors import NotMember
from stonework.numerics import Tolerance
from stonework.rng import SplitMix64


@pytest.fixture
def tol():
    return Tolerance(1e-9)


@pytest.fixture
def rng():
    return SplitMix64(0xC0FFEE)


def fiber_steps(family):
    """The per-fiber views of a spectral family: its flat values and steps
    split at ``first[1:]``, one (r_k,) and one (r_k, n, n) array per fiber."""
    return np.split(family.flat_values, family.first[1:]), np.split(family.flat_steps, family.first[1:])


def index_of(lattice, op):
    """The first node of ``lattice`` within its tol.eps of the operator
    ``op`` (max-abs), or NotMember when there is none."""
    if op.values.shape == lattice.nodes.shape[1:]:
        i = lt._near(op.values[None], lattice.nodes, lattice.tol.eps)[0]
        if i >= 0:
            return int(i)
    raise NotMember("operator is not a node of this lattice")
