import random
from fractions import Fraction

import pytest

from biderlie import (Algebra, BilinearTensor, PolyLeftMap, PolyRightMap,
                      basis_evaluation_tensor, builtin, commutator,
                      counterexample_bracket, derivation_matrices, from_tensor,
                      from_tensor_left, is_derivation, is_left_bider,
                      is_left_bider_poly, is_right_bider, is_right_bider_poly, lhd,
                      rhd, to_tensor, to_tensor_left, verify_lie_algebra,
                      verify_transpose_interplay)
from biderlie.biderivations import basis_tensors, right_bider_bilinear_space
from biderlie.bilinear import random_tensor
from biderlie.cli import heisenberg_example_maps
from biderlie.linalg import Matrix, basis_vector
from biderlie.report import all_ok

from conftest import random_rational_vector

F = Fraction


@pytest.fixture
def example():
    return heisenberg_example_maps()


def test_from_tensor_round_trip(example):
    _, _, b2 = example
    p = from_tensor(b2)
    assert to_tensor(p) == b2
    for i in range(3):
        for j in range(3):
            x, y = basis_vector(i, 3), basis_vector(j, 3)
            assert p.evaluate(x, y) == b2.evaluate(x, y)
    pl = from_tensor_left(b2)
    assert to_tensor_left(pl) == b2
    for i in range(3):
        for j in range(3):
            x, y = basis_vector(i, 3), basis_vector(j, 3)
            assert pl.evaluate(x, y) == b2.evaluate(x, y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tensor_conversions_evaluate_back(n):
    # the left conversions go through the right ones and a transpose; reading
    # both maps back on basis pairs must give the tensor itself
    rng = random.Random(n)
    for _ in range(5):
        B = random_tensor(rng, n)
        assert basis_evaluation_tensor(from_tensor(B)) == B
        assert basis_evaluation_tensor(from_tensor_left(B)) == B
        assert to_tensor(from_tensor(B)) == B
        assert to_tensor_left(from_tensor_left(B)) == B


def test_zero_tensor_round_trip():
    z = BilinearTensor.zero(3)
    assert from_tensor(z).is_zero()
    assert from_tensor(z).terms == {}
    assert to_tensor(from_tensor(z)) == z


def test_to_tensor_rejects_higher_degree():
    m = Matrix.identity(3)
    p = PolyRightMap.single(3, (2, 0, 0), m)
    with pytest.raises(ValueError):
        to_tensor(p)
    with pytest.raises(ValueError):
        to_tensor_left(PolyLeftMap.single(3, (1, 1, 0), m))


def test_constant_derivation_term_is_right_bider(heisenberg):
    d = derivation_matrices(heisenberg)[0]
    p = PolyRightMap.single(3, (0, 0, 0), d)
    assert is_right_bider_poly(heisenberg, p)
    assert is_left_bider_poly(heisenberg, PolyLeftMap.single(3, (0, 0, 0), d))


def test_example_map_is_right_bider_poly(example):
    A, b1, _ = example
    assert is_right_bider_poly(A, from_tensor(b1))


def test_coefficient_criterion_matches_sampling(heisenberg):
    # the coefficient-wise test agrees with freezing 50 random second arguments
    rng = random.Random(4)
    d = derivation_matrices(heisenberg)[2]
    good = PolyRightMap(3, {(0, 1, 0): d, (1, 0, 1): 2 * d})
    bad = good + PolyRightMap.single(3, (0, 0, 2), Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    assert is_right_bider_poly(heisenberg, good)
    assert not is_right_bider_poly(heisenberg, bad)
    for p, expect in ((good, True), (bad, False)):
        seen_failure = False
        for _ in range(50):
            y = random_rational_vector(rng, 3)
            if not is_derivation(heisenberg, p.fixed_second_arg(y)):
                seen_failure = True
        assert seen_failure == (not expect)


def test_heisenberg_bracket_regression(example):
    A, b1, b2 = example
    out = rhd(from_tensor(b1), from_tensor(b2))
    shadow = basis_evaluation_tensor(out)
    expected = BilinearTensor.from_entries(3, {(1, 0, 0): F(-1)})
    assert shadow == expected
    assert counterexample_bracket(A, b1, b2) == expected


def test_counterexample_preservation(example):
    A, b1, b2 = example
    shadow = counterexample_bracket(A, b1, b2)
    assert is_right_bider(A, shadow)
    assert not is_left_bider(A, shadow)
    # the full polynomial bracket also stays on the right side
    assert is_right_bider_poly(A, rhd(from_tensor(b1), from_tensor(b2)))


def test_alternativity(example):
    A, b1, b2 = example
    for b in (b1, b2):
        assert rhd(from_tensor(b), from_tensor(b)).is_zero()
        assert lhd(from_tensor_left(b), from_tensor_left(b)).is_zero()


def test_rhd_closed_form_matches_pointwise(example):
    A, b1, b2 = example
    rng = random.Random(9)
    p = rhd(from_tensor(b1), from_tensor(b2))
    for _ in range(50):
        x = random_rational_vector(rng, 3)
        y = random_rational_vector(rng, 3)
        direct = tuple(
            u - v for u, v in zip(b1.evaluate(b2.evaluate(x, y), y),
                                  b2.evaluate(b1.evaluate(x, y), y)))
        assert p.evaluate(x, y) == direct


def test_lhd_closed_form_matches_pointwise(example):
    A, b1, b2 = example
    rng = random.Random(10)
    p = lhd(from_tensor_left(b1), from_tensor_left(b2))
    for _ in range(50):
        x = random_rational_vector(rng, 3)
        y = random_rational_vector(rng, 3)
        direct = tuple(
            u - v for u, v in zip(b1.evaluate(x, b2.evaluate(x, y)),
                                  b2.evaluate(x, b1.evaluate(x, y))))
        assert p.evaluate(x, y) == direct


def test_fixed_second_argument_commutator_law(example):
    # with y frozen, the bracket is the plain commutator of the frozen maps
    A, b1, b2 = example
    p1, p2 = from_tensor(b1), from_tensor(b2)
    out = rhd(p1, p2)
    rng = random.Random(12)
    ys = [basis_vector(i, 3) for i in range(3)]
    ys += [random_rational_vector(rng, 3) for _ in range(10)]
    for y in ys:
        assert out.fixed_second_arg(y) == commutator(p1.fixed_second_arg(y),
                                                     p2.fixed_second_arg(y))


def test_degree_additivity(example):
    _, b1, b2 = example
    p1, p2 = from_tensor(b1), from_tensor(b2)
    sums = {tuple(a + b for a, b in zip(al, be))
            for al in p1.support() for be in p2.support()}
    assert rhd(p1, p2).support() <= sums
    q1 = p1 + PolyRightMap.single(3, (0, 2, 0), Matrix.identity(3))
    q2 = p2 + PolyRightMap.single(3, (1, 0, 1), 2 * Matrix.identity(3))
    sums = {tuple(a + b for a, b in zip(al, be))
            for al in q1.support() for be in q2.support()}
    assert rhd(q1, q2).support() <= sums


def test_closure_of_poly_right_biders(heisenberg):
    rng = random.Random(3)
    ders = derivation_matrices(heisenberg)
    def rand_map():
        terms = {}
        for _ in range(3):
            alpha = tuple(rng.randint(0, 1) for _ in range(3))
            m = Matrix.zeros(3, 3)
            for d in ders:
                m = m + F(rng.randint(-1, 1)) * d
            if not m.is_zero():
                terms[alpha] = m
        return PolyRightMap(3, terms)
    for _ in range(10):
        p1, p2 = rand_map(), rand_map()
        assert is_right_bider_poly(heisenberg, p1)
        assert is_right_bider_poly(heisenberg, p2)
        assert is_right_bider_poly(heisenberg, rhd(p1, p2))


@pytest.mark.parametrize("name", ["heisenberg3", "abelian(3)", "sl2"])
def test_lie_algebra_suite(name):
    A = builtin(name)
    assert all_ok(verify_lie_algebra(A, "right", samples=25, seed=0))
    assert all_ok(verify_lie_algebra(A, "left", samples=25, seed=0))


def test_lie_algebra_suite_generic_l4():
    L4 = builtin("L4")
    generic = Algebra("L4-generic", 2, L4.c, "generic")
    assert all_ok(verify_lie_algebra(generic, "right", samples=25, seed=0))
    assert all_ok(verify_lie_algebra(generic, "left", samples=25, seed=0))


def test_jacobi_explicit(example):
    # one concrete Jacobi instance, in addition to the seeded suite
    A, b1, b2 = example
    tensors = basis_tensors(right_bider_bilinear_space(A), 3)
    p1, p2 = from_tensor(b1), from_tensor(b2)
    p3 = from_tensor(tensors[0])
    jac = (rhd(p1, rhd(p2, p3)) + rhd(p2, rhd(p3, p1)) + rhd(p3, rhd(p1, p2)))
    assert jac.is_zero()


@pytest.mark.parametrize("name", ["heisenberg3", "abelian(2)", "sl2"])
def test_transpose_interplay_suite(name):
    assert all_ok(verify_transpose_interplay(builtin(name)))


def test_main_transpose_identity_on_example(example):
    A, b1, b2 = example
    lhs = rhd(from_tensor(b1), from_tensor(b2))
    rhs = lhd(from_tensor_left(b1.transpose()), from_tensor_left(b2.transpose())).transpose()
    assert lhs == rhs


def test_poly_map_linear_ops():
    m = Matrix.identity(2)
    p = PolyRightMap.single(2, (1, 0), m)
    q = PolyRightMap.single(2, (0, 1), 2 * m)
    s = p + q
    assert s.terms[(1, 0)] == m and s.terms[(0, 1)] == 2 * m
    assert (s - p) == q
    assert (F(1, 2) * q).terms[(0, 1)] == m
    assert (p + (-1) * p).is_zero()


def test_rhd_type_and_dim_errors():
    m = Matrix.identity(2)
    p = PolyRightMap.single(2, (1, 0), m)
    with pytest.raises(TypeError):
        rhd(p, from_tensor_left(BilinearTensor.zero(2)))
    with pytest.raises(ValueError):
        rhd(p, PolyRightMap.single(3, (1, 0, 0), Matrix.identity(3)))
