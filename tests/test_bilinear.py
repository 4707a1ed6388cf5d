import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biderlie import BilinearTensor, builtin, half_decomposition, skew_symmetrize, symmetrize
from biderlie.cli import heisenberg_example_maps

F = Fraction


@pytest.fixture
def example():
    return heisenberg_example_maps()


def e(i, n=3):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def test_example_values(example):
    _, b1, b2 = example
    assert b1.evaluate(e(0), e(1)) == (F(1), F(0), F(0))      # B1(e1,e2) = e1
    assert b1.evaluate(e(0), e(0)) == (F(0), F(0), F(1))      # B1(e1,e1) = e3
    assert b1.evaluate(e(1), e(1)) == (F(0), F(0), F(-1))     # B1(e2,e2) = -e3
    assert b2.evaluate(e(1), e(1)) == (F(0), F(1), F(0))      # B2(e2,e2) = e2


def test_zero_tensor_evaluates_to_zero():
    z = BilinearTensor.zero(3)
    assert z.evaluate((1, 2, 3), (4, 5, 6)) == (F(0),) * 3


def test_bilinear_extension(example):
    # B2(e1+e2, e3) = B2(e1,e3) + B2(e2,e3) = 2 e3
    _, _, b2 = example
    x = (F(1), F(1), F(0))
    assert b2.evaluate(x, e(2)) == (F(0), F(0), F(2))


def test_transpose_involution(example):
    _, b1, b2 = example
    for b in (b1, b2):
        assert b.transpose().transpose() == b


def test_example_maps_are_symmetric(example):
    _, b1, b2 = example
    assert b1.is_symmetric() and b1.transpose() == b1
    assert b2.is_symmetric() and b2.transpose() == b2


def test_transpose_swaps_indices():
    b = BilinearTensor.from_entries(3, {(1, 0, 0): F(-1)})    # B(e2,e1) = -e1
    bt = b.transpose()
    assert bt.evaluate(e(0), e(1)) == (F(-1), F(0), F(0))     # B^t(e1,e2) = -e1
    assert bt.t[0][1][0] == F(-1)


def test_symmetrize_of_symmetric_doubles(example):
    _, b1, _ = example
    assert symmetrize(b1) == 2 * b1
    assert skew_symmetrize(b1).is_zero()


def test_linear_ops(example):
    _, b1, b2 = example
    assert (b1 + (-1) * b1).is_zero()
    assert (2 * b1).evaluate(e(0), e(1)) == (F(2), F(0), F(0))
    # B1(e2,e2) + B2(e2,e2) = -e3 + e2
    assert (b1 + b2).evaluate(e(1), e(1)) == (F(0), F(1), F(-1))


small = st.integers(min_value=-4, max_value=4)


@st.composite
def tensors(draw, dim=3):
    data = draw(st.lists(st.lists(st.lists(small, min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim),
                         min_size=dim, max_size=dim))
    return BilinearTensor(dim, data)


@settings(max_examples=50, deadline=None)
@given(tensors())
def test_half_sum_decomposition(b):
    sym, skw = half_decomposition(b)
    assert sym + skw == b
    assert (2 * sym).is_symmetric()
    assert (2 * skw).is_skew()


@settings(max_examples=50, deadline=None)
@given(tensors())
def test_sym_minus_skew_is_twice_transpose(b):
    assert symmetrize(b) - skew_symmetrize(b) == 2 * b.transpose()


@settings(max_examples=30, deadline=None)
@given(tensors(), tensors(), small, small)
def test_symmetrizers_are_linear(b1, b2, a, c):
    comb = F(a) * b1 + F(c) * b2
    assert symmetrize(comb) == F(a) * symmetrize(b1) + F(c) * symmetrize(b2)
    assert skew_symmetrize(comb) == F(a) * skew_symmetrize(b1) + F(c) * skew_symmetrize(b2)


@settings(max_examples=30, deadline=None)
@given(tensors())
def test_evaluate_is_bilinear(b):
    rng = random.Random(5)
    x1 = tuple(F(rng.randint(-3, 3)) for _ in range(3))
    x2 = tuple(F(rng.randint(-3, 3)) for _ in range(3))
    y = tuple(F(rng.randint(-3, 3)) for _ in range(3))
    lam = F(rng.randint(-3, 3))
    lhs = b.evaluate(tuple(a + lam * c for a, c in zip(x1, x2)), y)
    rhs = tuple(p + q for p, q in zip(
        b.evaluate(x1, y), tuple(lam * v for v in b.evaluate(x2, y))))
    assert lhs == rhs


def test_flatten_round_trip(example):
    _, b1, _ = example
    assert BilinearTensor.from_flat(b1.flatten(), 3) == b1


def test_dimension_checks():
    b = BilinearTensor.zero(2)
    with pytest.raises(ValueError):
        b.evaluate((1, 0, 0), (0, 1))
    with pytest.raises(ValueError):
        b + BilinearTensor.zero(3)
    with pytest.raises(ValueError):
        BilinearTensor.from_entries(2, {(2, 0, 0): F(1)})


@pytest.mark.parametrize("j", [-1, 3])
def test_column_map_refuses_an_index_outside_the_dimension(j):
    # a -1 read wrapped entries and gave a zero matrix
    with pytest.raises(ValueError, match="outside 0..2"):
        builtin("heisenberg3").product.column_map(j)
