import itertools
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
from biderlie import scalar_maps, verify
from biderlie.scalar_maps import bracket_matches_poly_form, power_leibniz_witness

from helpers import random_rational_vector
from oracles import (evaluate_decomposition, power_leibniz_reference,
                     random_scalar_poly_fractions, to_poly_right_fractions)

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


def test_to_poly_right_matches_the_fraction_reference():
    # the integer expansion against one `Fraction` matrix c * F per monomial through the
    # validating constructor: equal maps with the very same tall integers, for signed
    # coefficients over 1..6, one- and four-term g, and rational, integer and zero F
    rng = random.Random(8)
    for n in (1, 2, 3, 4):
        pool = list(itertools.product(range(4), repeat=n))
        mats = [Matrix.zeros(n, n), Matrix.identity(n)] + [
            Matrix([[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n)]) for _ in range(6)]
        for terms in (1, 4):
            for F_mat in mats:
                coeffs = {a: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                          for a in rng.sample(pool, terms)}
                s = ScalarTimesDerivation(ScalarPoly(n, coeffs), F_mat)
                got, want = to_poly_right(s), to_poly_right_fractions(s)
                assert got == want
                assert (got.monomials, got.tall.den, got.tall.ints) == (
                    want.monomials, want.tall.den, want.tall.ints)
                assert got.is_zero() == F_mat.is_zero()


def test_scalar_poly_sums_and_products_drop_cancelled_terms():
    # the trusted results keep no zero coefficient, as the validating constructor would not
    y0, y1 = coord(0), coord(1)
    one = ScalarPoly.constant(3, 1)
    assert (y0 + -1 * y0).coeffs == {} and (y0 + -1 * y0).is_zero()
    assert ((one + y1) * (one + -1 * y1)).coeffs == {(0, 0, 0): F(1), (0, 2, 0): F(-1)}
    assert (0 * (y0 + y1)).is_zero() and (y0 * F(1, 2)).coeffs == {(1, 0, 0): F(1, 2)}
    for g in ((one + y1) * y0, y0 + y1 * F(2, 3), 3 * y1):
        assert g == ScalarPoly(3, g.coeffs)
        assert all(type(v) is Fraction and v for v in g.coeffs.values())


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


@pytest.mark.parametrize("alpha", [(0.5, 0), (1.0, 0), (True, 0), (0, Fraction(1)), (-1, 0)])
def test_scalar_polys_refuse_exponents_that_are_not_ints(alpha):
    with pytest.raises(ValueError, match="bad multi-index"):
        ScalarPoly(2, {alpha: 1})


def test_exp_curve_preconditions(heisenberg):
    bad = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), bad))
    L4 = builtin("L4")
    with pytest.raises(ValueError):
        exp_curve_check(L4, ScalarTimesDerivation(
            ScalarPoly.constant(2, 1), Matrix.zeros(2, 2)))


@pytest.mark.parametrize("h_list", [(float("nan"),), (1e-2, 0.0), (-1e-2, -1e-3, -1e-4),
                                    (1e-2, float("inf"))])
def test_exp_curve_refuses_steps_that_are_not_positive_and_finite(heisenberg, diag_derivation,
                                                                  h_list):
    # a nan step passed vacuously, a zero step divided by zero, and negative steps sorted
    # backwards, failing a correct curve
    with pytest.raises(ValueError, match="finite and > 0"):
        exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), diag_derivation),
                        h_list=h_list)


@pytest.mark.parametrize("i", [-1, 3, 5])
def test_coordinate_refuses_an_index_outside_the_dimension(i):
    with pytest.raises(ValueError, match="outside 0..2"):
        ScalarPoly.coordinate(3, i)


def test_power_leibniz_check_fails_where_the_float_check_passes(heisenberg, monkeypatch):
    # F = diag(1, 0, 0) is no derivation: F[e1, e2] = 0 but [F e1, e2] = e3. Past the
    # guard the central differences still tend to F, so only the exact check fails it,
    # first at k = 2 on (e1, e2): F^2 e3 = 0 against [F^2 e1, e2] = e3
    bad = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not is_derivation(heisenberg, bad)
    monkeypatch.setattr(scalar_maps, "is_derivation", lambda A, m: True)
    rep = exp_curve_check(heisenberg, ScalarTimesDerivation(coord(1), bad))
    assert rep.ok and not rep.exact
    assert power_leibniz_witness(heisenberg, bad) == (2, 0, 1)
    # verify's scalar suite, handed that F as its only derivation, fails the curve check
    monkeypatch.setattr(verify, "derivation_matrices", lambda A: [bad])
    [curve] = [r for r in verify.scalar_suite(heisenberg) if r.identity == "one-parameter-curve"]
    assert curve.status == "fail" and curve.witness == {"k": 2, "pair": [1, 2]}


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L2", "L3", "L4", "abelian(3)"])
def test_power_leibniz_check_matches_the_fraction_reference(name):
    # derivations pass at every k; drawn matrices, some of them scaled to derivations
    # plus a small error, fail at the first k and pair the reference names
    A = builtin(name)
    n = A.dim
    ders = derivation_matrices(A)
    for d in ders:
        assert power_leibniz_witness(A, d) is None
        assert power_leibniz_reference(A, d) is None
    rng = random.Random(3)
    for _ in range(12):
        M = Matrix([[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)])
        for G in (M, ders[0] + M * F(1, 7) if ders else M):
            assert power_leibniz_witness(A, G) == power_leibniz_reference(A, G)


def test_power_leibniz_check_reads_k_past_2():
    # a non-derivation of heisenberg3 whose k = 2 coefficients all vanish: the first
    # failing coefficient is k = 3 at (e1, e2)
    A = builtin("heisenberg3")
    M = Matrix([[-1, -1, -1], [0, 0, 0], [-1, 0, 1]])
    assert not is_derivation(A, M)
    assert power_leibniz_witness(A, M) == power_leibniz_reference(A, M) == (3, 0, 1)


def test_scalar_poly_drawer_matches_the_fraction_reference():
    # the same draws in the same order: equal coefficients under the same keys in the
    # same order, every one a `Fraction`, and the generator left in the same state
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 4):
            for max_degree in (1, 2, 3):
                got = verify._random_scalar_poly(ours, n, max_degree)
                want = random_scalar_poly_fractions(theirs, n, max_degree)
                assert list(got.coeffs.items()) == list(want.coeffs.items())
                assert all(type(v) is Fraction for v in got.coeffs.values())
        assert ours.getstate() == theirs.getstate()


# --- the scalar-class suite under injected faults -------------------------------

def _drops_last_monomial(s):
    P = to_poly_right(s)
    n, keep = P.dim, len(P.monomials) - 1
    if keep < 0:
        return P
    return PolyRightMap._of(n, P.monomials[:-1],
                            Matrix._of(keep * n, n, P.tall.den, P.tall.ints[:keep * n * n]))


def _swapped_class_bracket(s1, s2):
    return ScalarTimesDerivation(s1.g * s2.g, commutator(s2.F, s1.F))


def _half_step_expm(m, expm=scalar_maps.expm_float):
    return expm([[x / 2 for x in row] for row in m])


_NOT_DERIVATION = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])  # of heisenberg3, see above
_SCALAR_FAULTS = {  # the names replaced, in `verify` or `scalar_maps`, and their replacements
    "to-poly-right-drops-last-monomial": [(verify, "to_poly_right", _drops_last_monomial),
                                          (scalar_maps, "to_poly_right", _drops_last_monomial)],
    "class-bracket-swapped": [(scalar_maps, "class_bracket", _swapped_class_bracket)],
    "expm-half-step": [(scalar_maps, "expm_float", _half_step_expm)],
    # a non-derivation as the only Der basis matrix, past the curve check's guard
    "curve-guard-bypassed": [(scalar_maps, "is_derivation", lambda A, m: True),
                             (verify, "derivation_matrices", lambda A: [_NOT_DERIVATION])],
}
_SCALAR_CHECKS = ("derivation-equivalence-sweep", "bracket-stays-in-family", "one-parameter-curve")
_PASS3 = [("pass", None)] * 3
_L3_CURVE = ("skip", {"reason": "needs a Lie algebra"})
# the scalar-class suite's (status, witness) per check, in _SCALAR_CHECKS order, on
# heisenberg3 and L3 at seed 0 under each fault. Every check fails under some fault:
# the sweep when a dropped monomial empties the map of a one-term g, the bracket check
# under either wrong expansion or bracket, and the curve check, whose float part reads
# only exp(sF), under a wrong exponential or, through its exact part alone, a
# non-derivation. L3 is no Lie algebra, so its curve check is skipped
_SCALAR_PINNED = {
    None: {"heisenberg3": _PASS3, "L3": _PASS3[:2] + [_L3_CURVE]},
    "to-poly-right-drops-last-monomial": {
        "heisenberg3": [("fail", {"non_derivation_samples": 49}), ("fail", None), ("pass", None)],
        "L3": [("fail", {"non_derivation_samples": 49}), ("fail", None), _L3_CURVE]},
    "class-bracket-swapped": {
        "heisenberg3": [("pass", None), ("fail", None), ("pass", None)],
        "L3": [("pass", None), ("fail", None), _L3_CURVE]},
    "expm-half-step": {
        "heisenberg3": _PASS3[:2] + [("fail", {
            "errors": [["1e-02", "5.000e-01"], ["1e-03", "5.000e-01"], ["1e-04", "5.000e-01"]],
            "orders": ["-0.00", "-0.00"]})],
        "L3": _PASS3[:2] + [_L3_CURVE]},
    "curve-guard-bypassed": {
        "heisenberg3": _PASS3[:2] + [("fail", {"k": 2, "pair": [1, 2]})]},
}


@pytest.mark.parametrize("fault,name", [(f, name) for f, per in _SCALAR_PINNED.items()
                                        for name in per])
def test_scalar_suite_under_each_fault(monkeypatch, fault, name):
    for module, attr, value in _SCALAR_FAULTS.get(fault, ()):
        monkeypatch.setattr(module, attr, value)
    results = verify.scalar_suite(builtin(name))
    assert [(r.suite, r.identity) for r in results] == [("scalar-class", c)
                                                         for c in _SCALAR_CHECKS]
    assert [(r.status, r.witness) for r in results] == _SCALAR_PINNED[fault][name]


def test_every_scalar_check_fails_under_some_pinned_fault():
    failed = {c for per in _SCALAR_PINNED.values() for results in per.values()
              for c, (status, _) in zip(_SCALAR_CHECKS, results) if status == "fail"}
    assert failed == set(_SCALAR_CHECKS)
