import random
from fractions import Fraction

import pytest

from biderlie import (ScalarPoly, ScalarTimesDerivation, ad, bracket, builtin,
                      class_bracket, commutator, decompose_by_basis,
                      derivation_matrices, exp_curve_check, exp_nilpotent_exact,
                      iff_derivation_check, is_derivation, is_right_bider_poly,
                      to_poly_right)
from biderlie.brackets import PolyRightMap, rhd
from biderlie.linalg import Matrix
from biderlie.scalar_maps import bracket_matches_poly_form, evaluate_decomposition

from helpers import random_rational_vector

F = Fraction


def coord(i, dim=3):
    return ScalarPoly.coordinate(dim, i)


@pytest.fixture
def diag_derivation():
    # non-nilpotent derivation of heisenberg3, exp(sF) = diag(e^s, 1, e^s)
    return Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])


def test_scalar_poly_evaluation():
    g = ScalarPoly(3, {(0, 1, 0): F(2), (1, 0, 1): F(1, 2), (0, 0, 0): F(-1)})
    y = (F(3), F(5), F(-2))
    assert g.evaluate(y) == 2 * 5 + F(1, 2) * 3 * (-2) - 1
    assert (g * ScalarPoly.constant(3, 2)).evaluate(y) == 2 * g.evaluate(y)
    h = coord(1) * coord(1)
    assert h.evaluate(y) == 25


def test_to_poly_right_constant_g(diag_derivation):
    s = ScalarTimesDerivation(ScalarPoly.constant(3, 1), diag_derivation)
    p = to_poly_right(s)
    assert p.terms == {(0, 0, 0): diag_derivation}


def test_to_poly_right_single_monomial(heisenberg):
    F_mat = ad(heisenberg, heisenberg.basis_element(0))
    s = ScalarTimesDerivation(coord(1), F_mat)
    p = to_poly_right(s)
    assert set(p.terms) == {(0, 1, 0)}
    assert p.terms[(0, 1, 0)] == F_mat


def test_to_poly_right_evaluation_agreement(heisenberg):
    rng = random.Random(21)
    g = ScalarPoly(3, {(0, 2, 0): F(1), (1, 0, 0): F(-1, 2), (0, 0, 0): F(3)})
    F_mat = Matrix([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    s = ScalarTimesDerivation(g, F_mat)
    p = to_poly_right(s)
    for _ in range(50):
        x = random_rational_vector(rng, 3)
        y = random_rational_vector(rng, 3)
        expected = tuple(g.evaluate(y) * v for v in F_mat.apply(x))
        assert p.evaluate(x, y) == expected
        assert s.evaluate(x, y) == expected


def test_decompose_scalar_class_map(diag_derivation):
    # f_i(y) = g(y) F(e_i), component-wise
    g = coord(1) + ScalarPoly.constant(3, 1)
    s = ScalarTimesDerivation(g, diag_derivation)
    fs = decompose_by_basis(to_poly_right(s))
    for i in range(3):
        col = diag_derivation.col(i)
        for l in range(3):
            assert fs[i][l] == col[l] * g


def test_decompose_zero_map():
    fs = decompose_by_basis(PolyRightMap.zero(3))
    assert all(f.is_zero() for row in fs for f in row)


def test_decomposition_reconstructs(heisenberg):
    rng = random.Random(8)
    ders = derivation_matrices(heisenberg)
    p = (PolyRightMap.single(3, (0, 0, 0), ders[0])
         + PolyRightMap.single(3, (0, 1, 0), ders[3])
         + PolyRightMap.single(3, (2, 0, 1), ders[5]))
    fs = decompose_by_basis(p)
    for _ in range(50):
        x = random_rational_vector(rng, 3)
        y = random_rational_vector(rng, 3)
        assert evaluate_decomposition(fs, x, y) == p.evaluate(x, y)


def test_iff_derivation_directions(heisenberg):
    # F a derivation -> right biderivation for any g
    d = derivation_matrices(heisenberg)[1]
    for g in (ScalarPoly.constant(3, 1), coord(1), coord(0) * coord(2)):
        s = ScalarTimesDerivation(g, d)
        assert is_right_bider_poly(heisenberg, to_poly_right(s))
        assert iff_derivation_check(heisenberg, s)
    # F not a derivation, g = 1 -> not a right biderivation
    bad = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert not is_derivation(heisenberg, bad)
    s = ScalarTimesDerivation(ScalarPoly.constant(3, 1), bad)
    assert not is_right_bider_poly(heisenberg, to_poly_right(s))
    assert iff_derivation_check(heisenberg, s)
    # F = 0 is a derivation and the zero map is a right biderivation
    s = ScalarTimesDerivation(coord(2), Matrix.zeros(3, 3))
    assert is_right_bider_poly(heisenberg, to_poly_right(s))
    assert iff_derivation_check(heisenberg, s)


def test_iff_rejects_zero_g(heisenberg):
    with pytest.raises(ValueError):
        iff_derivation_check(
            heisenberg, ScalarTimesDerivation(ScalarPoly.zero(3), Matrix.identity(3)))


def test_iff_equivalence_sweep(heisenberg):
    # >= 100 seeded (g, F) pairs, exercising both derivation and
    # non-derivation branches
    rng = random.Random(0)
    ders = derivation_matrices(heisenberg)
    derivation_branch = non_derivation_branch = 0
    for trial in range(120):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            alpha = [0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                alpha[rng.randrange(3)] += 1
            coeffs[tuple(alpha)] = F(rng.randint(-3, 3), rng.randint(1, 2))
        g = ScalarPoly(3, coeffs)
        if g.is_zero():
            continue
        if trial % 2 == 0:
            F_mat = Matrix.zeros(3, 3)
            for d in ders:
                F_mat = F_mat + F(rng.randint(-2, 2)) * d
        else:
            F_mat = Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        if is_derivation(heisenberg, F_mat):
            derivation_branch += 1
        else:
            non_derivation_branch += 1
        assert iff_derivation_check(heisenberg, ScalarTimesDerivation(g, F_mat))
    assert derivation_branch + non_derivation_branch >= 100
    assert derivation_branch > 0 and non_derivation_branch > 0


def test_class_bracket_of_equal_members_is_zero(diag_derivation):
    s = ScalarTimesDerivation(coord(1), diag_derivation)
    out = class_bracket(s, s)
    assert out.F.is_zero()
    assert to_poly_right(out).is_zero()


def test_class_bracket_matches_rhd(heisenberg, diag_derivation):
    ders = derivation_matrices(heisenberg)
    f1, f2 = diag_derivation, ders[1]
    assert not commutator(f1, f2).is_zero()
    s1 = ScalarTimesDerivation(ScalarPoly.constant(3, 1), f1)
    s2 = ScalarTimesDerivation(ScalarPoly.constant(3, 1), f2)
    out = class_bracket(s1, s2)
    assert out.F == commutator(f1, f2)
    assert to_poly_right(out) == rhd(to_poly_right(s1), to_poly_right(s2))


def test_class_bracket_pointwise(heisenberg):
    rng = random.Random(17)
    for _ in range(10):
        g1 = ScalarPoly(3, {(1, 0, 0): F(1), (0, 0, 0): F(rng.randint(-2, 2))})
        g2 = ScalarPoly(3, {(0, 0, 2): F(rng.randint(-2, 2)), (0, 1, 0): F(1)})
        f1 = Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        f2 = Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        s1, s2 = ScalarTimesDerivation(g1, f1), ScalarTimesDerivation(g2, f2)
        assert bracket_matches_poly_form(s1, s2)
        out = class_bracket(s1, s2)
        for _ in range(5):
            x = random_rational_vector(rng, 3)
            y = random_rational_vector(rng, 3)
            expected = tuple(g1.evaluate(y) * g2.evaluate(y) * v
                             for v in (f1 * f2 - f2 * f1).apply(x))
            assert out.evaluate(x, y) == expected


def test_exp_nilpotent_exact_is_automorphism(heisenberg):
    # shift derivation: e1 -> e2 -> e3 -> 0; cubic vanishing makes the
    # rational series exact and exp(sF) an automorphism for rational s
    N = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert is_derivation(heisenberg, N)
    rng = random.Random(5)
    for s in (F(1, 3), F(-2, 7), F(4)):
        E = exp_nilpotent_exact(N, s)
        for _ in range(10):
            x = random_rational_vector(rng, 3)
            y = random_rational_vector(rng, 3)
            assert E.apply(bracket(heisenberg, x, y)) == bracket(
                heisenberg, E.apply(x), E.apply(y))
    # group law in the parameter
    assert exp_nilpotent_exact(N, F(1, 2)) * exp_nilpotent_exact(N, F(1, 2)) == \
        exp_nilpotent_exact(N, F(1))


def test_exp_nilpotent_exact_rejects_non_nilpotent(diag_derivation):
    with pytest.raises(ValueError):
        exp_nilpotent_exact(diag_derivation, F(1))


def test_exact_central_difference_side_oracle(heisenberg):
    # for F with F^2 = 0 the rational central difference is exactly F,
    # which is what lets the floating-point sweep be judged against an
    # exact reference
    F_mat = ad(heisenberg, heisenberg.basis_element(0))
    assert (F_mat * F_mat).is_zero()
    for h in (F(1, 100), F(1, 10000)):
        diff = (exp_nilpotent_exact(F_mat, h) - exp_nilpotent_exact(F_mat, -h)) * F(1, 2 * h)
        assert diff == F_mat


def test_exp_curve_spec_point(heisenberg):
    # g(y) = y2, F = ad(e1), x = e2, y = e1 + e2: the quoted tolerance point
    F_mat = ad(heisenberg, heisenberg.basis_element(0))
    rep = exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), F_mat))
    assert rep.ok
    smallest_h, err = rep.errors[-1]
    assert smallest_h == 1e-4
    assert err <= 1e-6
    # central differences are exact here (F^2 = 0), flagged as such
    assert rep.exact


def test_exp_curve_zero_derivation(heisenberg):
    rep = exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), Matrix.zeros(3, 3)))
    assert rep.ok
    assert all(e == 0.0 for _, e in rep.errors)


def test_exp_curve_second_order_decay(heisenberg, diag_derivation):
    rep = exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), diag_derivation))
    assert rep.ok and not rep.exact
    assert rep.errors[-1][1] <= 1e-6
    assert all(1.8 <= p <= 2.2 for p in rep.orders)


def test_exp_curve_halving_ratio(heisenberg, diag_derivation):
    rep = exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), diag_derivation),
                          h_list=(1e-2, 5e-3, 2.5e-3))
    errs = [e for _, e in rep.errors]
    for a, b in zip(errs, errs[1:]):
        assert 3.5 <= a / b <= 4.5


def test_exp_curve_preconditions(heisenberg):
    bad = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), bad))
    L4 = builtin("L4")
    with pytest.raises(ValueError):
        exp_curve_check(L4, ScalarTimesDerivation(
            ScalarPoly.constant(2, 1), Matrix.zeros(2, 2)))
