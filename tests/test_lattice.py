"""Weighted-l1 lattice structure: the norm must be additive on the cone."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from possys import GridSpace, l1_norm
from possys.lattice import induced_operator_norm, weighted_l1

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def space_of(n):
    return GridSpace(length=1.0, cells=n)


class TestGridSpace:
    def test_spacing_and_weights(self):
        space = GridSpace(length=2.0, cells=8)
        assert space.spacing == 0.25
        assert np.all(space.weights == 0.25)
        assert len(space.centers) == 8
        assert space.centers[0] == pytest.approx(0.125)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GridSpace(length=0.0, cells=4)
        with pytest.raises(ValueError):
            GridSpace(length=1.0, cells=0)
        space = space_of(3)
        with pytest.raises(ValueError):
            space.vector(np.ones(4))
        with pytest.raises(ValueError):
            space.vector(np.array([1.0, np.nan, 0.0]))

    def test_vectors_are_readonly(self):
        v = space_of(3).vector(np.arange(3.0))
        with pytest.raises(ValueError):
            v.values[0] = 7.0

    def test_basis(self):
        e1 = space_of(3).basis(1)
        assert np.all(e1.values == [0.0, 1.0, 0.0])


@given(arrays(np.float64, 5, elements=nonneg), arrays(np.float64, 5, elements=nonneg))
@settings(max_examples=200, deadline=None)
def test_norm_additive_on_cone(f, g):
    space = space_of(5)
    lhs = l1_norm(space.vector(f) + space.vector(g))
    rhs = l1_norm(space.vector(f)) + l1_norm(space.vector(g))
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)


@given(arrays(np.float64, 6, elements=nonneg), arrays(np.float64, 6, elements=nonneg))
@settings(max_examples=150, deadline=None)
def test_monotone_on_cone(f, g):
    space = space_of(6)
    assert l1_norm(space.vector(f + g)) >= l1_norm(space.vector(f)) - 1e-12


def test_weighted_l1_oracle():
    # h = 0.5, |f| = (3, 4) -> 0.5 * 7
    space = GridSpace(length=1.0, cells=2)
    assert weighted_l1(np.array([3.0, -4.0]), space) == pytest.approx(3.5)


class TestOperatorNorm:
    def test_matches_definition_on_random_matrices(self, rng):
        space = space_of(7)
        for _ in range(20):
            m = rng.standard_normal((7, 7))
            claimed = induced_operator_norm(m, space)
            best = 0.0
            for j in range(7):
                e = np.zeros(7)
                e[j] = 1.0
                best = max(best, weighted_l1(m @ e, space) / weighted_l1(e, space))
            assert claimed == pytest.approx(best, rel=1e-12)

    def test_uniform_weights_reduce_to_column_sums(self, rng):
        space = space_of(4)
        m = rng.standard_normal((4, 4))
        assert induced_operator_norm(m, space) == pytest.approx(
            np.max(np.sum(np.abs(m), axis=0))
        )
