import hashlib
import math
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
import biderlie.brackets as brackets_module
import biderlie.verify as verify_module
from biderlie.brackets import random_multi_index, random_ratio, random_ratios
from biderlie.biderivations import (basis_tensors, left_bider_bilinear_space,
                                    right_bider_bilinear_space)
from biderlie.bilinear import random_tensor
from biderlie.cli import heisenberg_example_maps
from biderlie.formats import parse_map, serialize_map
from biderlie.linalg import Matrix, Ratio, basis_vector
from biderlie.report import all_ok

from helpers import random_rational_vector, workers_only
from oracles import (bracket_terms_per_pair, is_derivation_reference, poly_terms_combination,
                     poly_value_reference, read_per_entry)

F = Fraction
# the real kernel and operand reader, taken before any test patches the module's names
_KERNEL, _read = brackets_module._bracket_terms, brackets_module._read


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


# B(e1, e2) = e3; its transpose Bt(e2, e1) = e3 is another tensor
_E1E2 = BilinearTensor.from_entries(3, {(0, 1, 2): 1})


def test_to_tensor_refuses_a_left_map():
    # the left map of B, read as a right map, would give Bt
    assert to_tensor(from_tensor(_E1E2)) == _E1E2 != _E1E2.transpose()
    with pytest.raises(TypeError, match="to_tensor expects a right map"):
        to_tensor(from_tensor_left(_E1E2))


def test_to_tensor_left_refuses_a_right_map():
    assert to_tensor_left(from_tensor_left(_E1E2)) == _E1E2
    with pytest.raises(TypeError, match="to_tensor_left expects a left map"):
        to_tensor_left(from_tensor(_E1E2))


def _right_only_tensor(A):
    return next(t for t in basis_tensors(right_bider_bilinear_space(A), A.dim)
                if not is_left_bider(A, t))


def test_is_right_bider_poly_refuses_a_left_map(heisenberg):
    # a right-only t: its left map, read as a right map, would be answered for t^t
    t = _right_only_tensor(heisenberg)
    assert is_right_bider_poly(heisenberg, from_tensor(t))
    with pytest.raises(TypeError, match="is_right_bider_poly expects a right map"):
        is_right_bider_poly(heisenberg, from_tensor_left(t))


def test_is_left_bider_poly_refuses_a_right_map(heisenberg):
    # a right-only t: its right map, read as a left map, would be answered for t^t
    t = _right_only_tensor(heisenberg)
    assert not is_left_bider_poly(heisenberg, from_tensor_left(t))
    with pytest.raises(TypeError, match="is_left_bider_poly expects a left map"):
        is_left_bider_poly(heisenberg, from_tensor(t))


@pytest.mark.parametrize("cls", [PolyRightMap, PolyLeftMap])
@pytest.mark.parametrize("alpha", [(0.5, 0), (1.0, 0), (True, 0), (0, F(1)), (-1, 0)])
def test_poly_maps_refuse_exponents_that_are_not_ints(cls, alpha):
    # a float exponent would evaluate to a float, and (1.0, 0) or (True, 0) would write
    # a file that parse_map refuses
    with pytest.raises(ValueError, match="bad multi-index"):
        cls(2, {alpha: Matrix.identity(2)})


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
            if not is_derivation(heisenberg, p.fixed_arg(y)):
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
        assert out.fixed_arg(y) == commutator(p1.fixed_arg(y), p2.fixed_arg(y))


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


@pytest.mark.parametrize("count", [0, -1])
def test_sampled_suites_refuse_fewer_than_one_sample(count):
    # a sampled check over no samples would pass without checking anything
    A = builtin("heisenberg3")
    for run in (lambda: verify_lie_algebra(A, "right", samples=count),
                lambda: verify_lie_algebra(A, "left", samples=count),
                lambda: verify_module.symmetry_suite(A, samples=count),
                lambda: verify_module.scalar_suite(A, sweep_samples=count),
                lambda: verify_module.run_all(A, samples=count)):
        with pytest.raises(ValueError, match="at least 1"):
            run()
    assert all_ok(verify_lie_algebra(A, "right", samples=1))


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


@pytest.mark.parametrize("name", ["heisenberg3", "abelian(2)", "sl2", "L1", "L2", "L3", "L4"])
def test_transpose_interplay_suite(name):
    # criterion 8 runs the suite, through `verify`, on every builtin
    assert all_ok(verify_transpose_interplay(builtin(name)))


@pytest.mark.parametrize("name", ["heisenberg3", "L3", "sl2"])
def test_transpose_suite_evaluates_and_brackets_each_tensor_once(monkeypatch, name):
    # m basis tensors and their two doubles are each evaluated once (one int_form), and
    # each row makes five kernel calls, the right ones: the left maps read as the right
    # maps, so no left row is bracketed, and identity (a) on the doubles is read from the
    # matched and mixed rows, not bracketed again
    A = builtin(name)
    m = right_bider_bilinear_space(A).dim
    calls = {"kernel": 0, "int_form": 0}
    kernel, int_form = brackets_module._bracket_terms, BilinearTensor.int_form

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper
    monkeypatch.setattr(brackets_module, "_bracket_terms", counted("kernel", kernel))
    monkeypatch.setattr(BilinearTensor, "int_form", counted("int_form", int_form))
    assert all_ok(verify_transpose_interplay(A))
    assert calls == {"kernel": 5 * m, "int_form": 3 * m}


def _count_reads(monkeypatch) -> list[int]:
    # every `_read` the module makes from here on, counted in the list's one entry
    calls = [0]

    def counted(X):
        calls[0] += 1
        return _read(X)
    monkeypatch.setattr(brackets_module, "_read", counted)
    return calls


def test_read_matches_the_per_entry_reader():
    # maps and raw forms of dims 1-7, sparse to dense, with denominators up to 9, negative
    # entries and all-zero blocks (a raw form keeps them, `_read` skips them)
    rng = random.Random("read-per-entry")
    for trial in range(140):
        n, cls = trial % 7 + 1, (PolyRightMap, PolyLeftMap)[trial % 2]
        den, nn = rng.randint(1, 9), n * n
        raw = {}
        for _ in range(rng.randint(0, 6)):
            density = rng.choice((0, 0.1, 0.5, 1))
            raw[tuple(rng.randint(0, 2) for _ in range(n))] = [
                rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(nn)]
        form = (den, raw)
        assert _read(form) == read_per_entry(form)
        P = cls._of(n, den, {a: list(flat) for a, flat in raw.items()})
        assert _read(P) == read_per_entry(P)
        assert [a for a, _, _ in _read(P)[1]] == [a for a, flat in raw.items() if any(flat)]


@pytest.mark.parametrize("name", ["heisenberg3", "L3", "sl2"])
def test_transpose_suite_reads_each_operand_once(monkeypatch, name):
    # each family's right maps and the two lists of left maps of transposes are read once
    # when they are built, 5m reads; the symmetric left maps are the S family's read right
    # maps
    A = builtin(name)
    m = right_bider_bilinear_space(A).dim
    reads = _count_reads(monkeypatch)
    assert all_ok(verify_transpose_interplay(A))
    assert reads == [5 * m]


@pytest.mark.parametrize("name", ["heisenberg3", "L3", "sl2"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_lie_law_suite_reads_each_sample_and_product_once(monkeypatch, name, side):
    # the m basis maps' raw forms are combined, not read; per sample its three
    # maps, the two combinations and the three products bracketed again are each read once
    A = builtin(name)
    reads = _count_reads(monkeypatch)
    assert all_ok(verify_lie_algebra(A, side, samples=25))
    assert reads == [8 * 25]


def test_raw_combination_takes_nothing_from_a_zero_coefficient():
    # a form with factor 0 adds neither its denominator nor its monomials: the sum is the
    # (den, terms) of the other forms alone, whatever type the 0 has
    one = (2, {(1, 0): (1, 0, 0, 1)})
    other = (7, {(0, 1): (3, 0, 0, 0), (1, 0): (0, 5, 0, 0)})
    combination = brackets_module._raw_combination
    for zero in (0, F(0), Ratio(0, 3)):
        assert combination((1, zero), (one, other)) == (2, {(1, 0): [1, 0, 0, 1]})
        assert combination((zero, F(1, 3)), (one, other)) == (
            21, {(0, 1): [3, 0, 0, 0], (1, 0): [0, 5, 0, 0]})
        assert combination((zero, zero), (one, other)) == (1, {})
    assert combination((Ratio(1, 2), Ratio(-3, 1)), (one, other)) == (
        28, {(1, 0): [7, -60, 0, 7], (0, 1): [-36, 0, 0, 0]})


@pytest.mark.parametrize("name", ["heisenberg3", "L3", "sl2"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_random_map_is_the_fraction_combination_of_its_draws(name, side):
    # a sample is a rational sum of the base maps plus up to two terms y^a D, D a rational
    # sum of the derivations; the reference draws the same values with randint from a
    # copy of the generator and sums the maps' `Fraction` terms matrix by matrix
    A = builtin(name)
    n, ders = A.dim, derivation_matrices(A)
    space, convert = ((right_bider_bilinear_space, from_tensor) if side == "right"
                      else (left_bider_bilinear_space, from_tensor_left))
    maps = [convert(t) for t in basis_tensors(space(A), n)]
    base = [(P.den, P.blocks) for P in maps]
    rng = random.Random(f"{name}-{side}")
    for _ in range(40):
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = PolyRightMap._of(n, *brackets_module._random_map(rng, base, ders, n))
        coeffs = [F(twin.randint(-2, 2), twin.randint(1, 2)) for _ in maps]
        terms = [P.terms for P in maps]
        for _ in range(twin.randrange(3) if ders else 0):
            alpha = [0] * n
            for _ in range(twin.randint(0, 2)):
                alpha[twin.randrange(n)] += 1
            coeffs += [F(twin.randint(-2, 2), twin.randint(1, 2)) for _ in ders]
            terms += [{tuple(alpha): D} for D in ders]
        want = PolyRightMap(n, poly_terms_combination(coeffs, terms))
        assert got == want and hash(got) == hash(want)
        assert rng.getstate() == twin.getstate()


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


@pytest.mark.parametrize("cls", [PolyRightMap, PolyLeftMap])
def test_poly_map_arithmetic_matches_matrix_by_matrix_reference(cls):
    # sums, differences, scalar multiples and negations run on each map's scaled
    # form; every result must equal the matrix-by-matrix `Fraction` reference and
    # the same map parsed back from its file text, hash included
    rng = random.Random(cls.__name__)
    n = 3
    maps = [cls(n, _random_terms(rng, n, rng.randint(1, 5), (1, 2, 3, 5, 7))) for _ in range(6)]
    one, minus = F(1), F(-1)

    def expect(got, coeffs, operands):
        want = cls(n, poly_terms_combination(coeffs, [P.terms for P in operands]))
        parsed = parse_map(serialize_map(got))
        assert got == want and got.terms == want.terms
        assert parsed == got and hash(parsed) == hash(got) == hash(want)
        assert all(not m.is_zero() for m in got.terms.values())
        return got

    for P, Q in zip(maps, maps[1:]):
        f = F(rng.randint(-7, 7), rng.randint(1, 7))
        s = expect(P + Q, (one, one), (P, Q))
        expect(P - Q, (one, minus), (P, Q))
        expect(f * P, (f,), (P,))
        expect(P * 0, (0,), (P,))
        expect(-P, (minus,), (P,))
        expect(s - Q, (one,), (P,))
        expect(f * s + -s, (f - 1,), (s,))
        assert (P - P).is_zero() and P - P == cls.zero(n) and (P - P).den == 1
        assert hash(0 * P) == hash(cls.zero(n))
        # brackets of maps built by arithmetic, after their operands were bracketed
        br = rhd if cls is PolyRightMap else lhd
        assert br(P, Q).terms == bracket_terms_per_pair(P.terms, Q.terms)
        assert br(s, f * Q).terms == bracket_terms_per_pair(s.terms, (f * Q).terms)
        assert br(-s, s - P).terms == bracket_terms_per_pair((-s).terms, (s - P).terms)


@pytest.mark.parametrize("cls", [PolyRightMap, PolyLeftMap])
def test_integer_born_maps_equal_and_hash_as_their_fraction_born_copies(cls):
    # the kernel adds a bracket over d1 d2, and `_of` puts it in lowest terms:
    # (E12 / 2) and (2/3 E21) bracket to 2 (E11 - E22) over 6, held as (E11 - E22)
    # over 3, as the map rebuilt from its `Fraction` terms holds it
    br = rhd if cls is PolyRightMap else lhd
    P = cls.single(2, (1, 0), Matrix([[0, F(1, 2)], [0, 0]]))
    Q = cls.single(2, (0, 1), Matrix([[0, 0], [F(2, 3), 0]]))
    R = br(P, Q)
    assert (R.den, R.blocks) == (3, {(1, 1): [1, 0, 0, -1]})
    born = cls(2, R.terms)
    assert (born.den, born.blocks) == (R.den, R.blocks)
    # the raw form over 6 with all entries even, with an all-zero block first, is R
    loose = cls._of(2, 6, {(0, 2): [0, 0, 0, 0], (1, 1): [2, 0, 0, -2]})
    for a, b in ((R, born), (born, R), (R, parse_map(serialize_map(R))), (loose, R)):
        assert a == b and hash(a) == hash(b)
    assert R != 2 * R and R != F(1, 2) * R and R != -R and R != cls.zero(2)
    assert 2 * R - R == born and hash(2 * R - R) == hash(born)
    # the same on random brackets and combinations of mixed denominators
    rng = random.Random(cls.__name__)
    for _ in range(20):
        n = rng.randint(2, 3)
        X, Y = (cls(n, _random_terms(rng, n, rng.randint(1, 4), (1, 2, 4, 6, 9)))
                for _ in range(2))
        f = F(rng.randint(1, 6), rng.randint(1, 6))
        for got in (br(X, Y), f * br(X, Y), br(X, Y) + br(Y, X), -br(f * X, Y), X - f * Y):
            twin = cls(n, got.terms)
            assert got == twin and twin == got and hash(got) == hash(twin)
            assert (got.den, got.blocks) == (twin.den, twin.blocks)
            assert got == parse_map(serialize_map(got))
            # its blocks in reverse order and scaled by 6, over 6 den, after an all-zero block
            zero = (9,) * n
            loose = cls._of(n, 6 * got.den, {zero: [0] * (n * n), **{
                a: [6 * x for x in flat] for a, flat in reversed(got.blocks.items())}})
            assert zero not in got.blocks and loose == got and hash(loose) == hash(got)


@pytest.mark.parametrize("cls", [PolyRightMap, PolyLeftMap])
def test_bracket_terms_view_and_file_text_match_the_reference(cls):
    # `.terms` of a bracket is a sorted view of its blocks; it and the file text
    # must be those of the per-pair `Fraction` reference
    br = rhd if cls is PolyRightMap else lhd
    rng = random.Random(f"view-{cls.__name__}")
    for n in (1, 2, 3, 5):
        for _ in range(8):
            X, Y = (cls(n, _random_terms(rng, n, rng.randint(1, min(n + 2, 6)), (1, 2, 3, 5, 7)))
                    for _ in range(2))
            R = br(X, Y)
            assert list(R.terms) == list(R.monomials) == sorted(R.blocks)
            assert R.terms == {a: Matrix._of(n, n, R.den, flat) for a, flat in R.blocks.items()}
            want = bracket_terms_per_pair(X.terms, Y.terms)
            assert R.terms == want
            assert serialize_map(R) == serialize_map(cls(n, want))
            assert serialize_map(br(R, X)) == serialize_map(
                cls(n, bracket_terms_per_pair(want, X.terms)))


def _der_terms(rng, ders, n, count, bad=False):
    # combinations of the Der basis with mixed denominators; with `bad`, exactly
    # one term is nudged off Der
    terms = {}
    while len(terms) < count:
        terms[random_multi_index(rng, n, 2)] = sum(
            (F(rng.choice((-3, 1, 2)), rng.choice((1, 2, 3, 5))) * d for d in ders),
            Matrix.zeros(n, n))
    if bad:  # the identity is no derivation of an algebra with a nonzero product
        alpha = rng.choice(list(terms))
        terms[alpha] = terms[alpha] + F(1, 5) * Matrix.identity(n)
    return terms


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L3", "L4", "rescaled"])
def test_poly_predicates_match_the_derivation_reference_per_term(name):
    A = (Algebra.from_entries("rescaled", 3, {(0, 1, 2): F(2, 3), (1, 0, 2): F(-2, 3),
                                              (2, 0, 0): F(1, 5)}, "generic")
         if name == "rescaled" else builtin(name))
    n = A.dim
    ders = derivation_matrices(A)
    rng = random.Random(name)
    seen = set()
    for trial in range(12):
        for cls, predicate in ((PolyRightMap, is_right_bider_poly),
                               (PolyLeftMap, is_left_bider_poly)):
            P = cls(n, _der_terms(rng, ders, n, 3, bad=trial % 2 == 1))
            br = rhd if cls is PolyRightMap else lhd
            # integer-born maps too: a bracket (over d1 d2) and a combination with it
            bracket = br(P, P + cls(n, _der_terms(rng, ders, n, 2)))
            for Q in (P, bracket, F(5, 6) * P - bracket):
                want = [is_derivation_reference(A, m) for m in Q.terms.values()]
                assert predicate(A, Q) == all(want)
                seen.add(want.count(False))
    assert {0, 1} <= seen


def test_rhd_type_and_dim_errors():
    m = Matrix.identity(2)
    p = PolyRightMap.single(2, (1, 0), m)
    with pytest.raises(TypeError):
        rhd(p, from_tensor_left(BilinearTensor.zero(2)))
    with pytest.raises(ValueError):
        rhd(p, PolyRightMap.single(3, (1, 0, 0), Matrix.identity(3)))


# --- the integer bracket kernel against the per-pair reference ---------------

def _heisenberg(n):
    k = n // 2
    entries = {}
    for i in range(k):
        entries[(i, k + i, n - 1)] = F(1)
        entries[(k + i, i, n - 1)] = F(-1)
    return Algebra.from_entries(f"heisenberg{n}", n, entries, "lie")


def test_sample_drawers_draw_as_randint_does():
    # each drawer gives what its randint form gave and leaves the generator where it left it,
    # so every seed keeps its samples and witnesses
    def multi_index(rng, n, max_degree):
        alpha = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            alpha[rng.randrange(n)] += 1
        return tuple(alpha)

    def scalar_poly(rng, n):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            alpha = multi_index(rng, n, 2)
            coeffs[alpha] = coeffs.get(alpha, F(0)) + F(rng.randint(-2, 2), rng.randint(1, 2))
        return {a: v for a, v in coeffs.items() if v}

    for seed in range(51):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 5):
            for span in (1, 2, 3):
                assert random_ratios(ours, n, span) + [random_ratio(ours, span)] == [
                    (theirs.randint(-span, span), theirs.randint(1, span)) for _ in range(n + 1)]
                assert random_tensor(ours, n, span).matrix.ints == tuple(
                    theirs.randint(-span, span) for _ in range(n ** 3))
            assert random_multi_index(ours, n, 3) == multi_index(theirs, n, 3)
            assert verify_module._random_matrix(ours, n).ints == tuple(
                theirs.randint(-2, 2) for _ in range(n * n))
            assert verify_module._random_scalar_poly(ours, n).coeffs == scalar_poly(theirs, n)
        assert ours.getstate() == theirs.getstate()


def _refuse_more_than_the_monomials(n, count):
    # random_multi_index(rng, n, 3) draws one of C(n + 3, 3) multi-indices
    if count > math.comb(n + 3, 3):
        raise ValueError(f"{count} terms, but only {math.comb(n + 3, 3)} monomials of "
                         f"degree at most 3 in {n} variables")


def _random_terms(rng, n, count, denominators):
    _refuse_more_than_the_monomials(n, count)
    terms = {}
    while len(terms) < count:
        terms[random_multi_index(rng, n, 3)] = Matrix(
            [[F(rng.choice((0, 0, 1, -1, 2, -3)), rng.choice(denominators)) for _ in range(n)]
             for _ in range(n)])
    return terms


def _derivation_terms(rng, ders, n, count):
    _refuse_more_than_the_monomials(n, count)
    terms = {}
    while len(terms) < count:
        alpha = random_multi_index(rng, n, 3)
        d1, d2 = rng.sample(ders, 2)
        terms[alpha] = (F(rng.choice((-3, 1, 2)), rng.choice((1, 2))) * d1
                        + F(rng.choice((-1, 3)), 2) * d2)
    return terms


def _assert_kernel_matches_reference(t1, t2, n):
    # the kernel takes each map as read from its raw form and returns the raw form of
    # the bracket, which `_of` makes a map; the reference gets the same maps' terms
    P1, P2 = PolyRightMap(n, t1), PolyRightMap(n, t2)
    [raw] = _KERNEL(_read(P1), [_read(P2)])
    R = PolyRightMap._of(n, *raw)
    got = R.terms
    assert not any(m.is_zero() for m in got.values())
    want = bracket_terms_per_pair(P1.terms, P2.terms)
    assert got == want
    for S in (R, R.transpose()):
        assert serialize_map(S) == serialize_map(type(S)(n, want))
    return got


def _cancelling_terms():
    # at y1 y2 the pair commutators [E12, E21] and [E21, E12] cancel
    e11, e12, e21 = (Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]),
                     Matrix([[0, 0], [1, 0]]))
    return {(1, 0): e12, (0, 1): e21, (0, 0): e11}, {(0, 1): e21, (1, 0): e12}


@pytest.mark.parametrize("case", ["mixed-denominators", "empty", "dim-1", "self",
                                  "cancelling", "heisenberg7-40-terms"])
def test_bracket_kernel_matches_per_pair_reference(case):
    rng = random.Random(case)
    if case == "mixed-denominators":
        for n in (2, 3, 4):
            for _ in range(20):
                t1 = _random_terms(rng, n, rng.randint(1, 6), (1, 2, 3))
                t2 = _random_terms(rng, n, rng.randint(1, 6), (1, 5, 7))
                _assert_kernel_matches_reference(t1, t2, n)
    elif case == "empty":
        t = _random_terms(rng, 3, 4, (1, 2))
        assert _assert_kernel_matches_reference({}, t, 3) == {}
        assert _assert_kernel_matches_reference(t, {}, 3) == {}
        assert _assert_kernel_matches_reference({}, {}, 3) == {}
    elif case == "dim-1":
        t1, t2 = _random_terms(rng, 1, 3, (1, 2, 3)), _random_terms(rng, 1, 3, (1, 5))
        assert _assert_kernel_matches_reference(t1, t2, 1) == {}
    elif case == "self":
        for n in (2, 3):
            t = _random_terms(rng, n, 6, (1, 2, 3))
            assert _assert_kernel_matches_reference(t, t, n) == {}
    elif case == "cancelling":
        t1, t2 = _cancelling_terms()
        got = _assert_kernel_matches_reference(t1, t2, 2)
        assert set(got) == {(0, 1), (1, 0)}
        assert (1, 1) not in got
    else:
        ders = derivation_matrices(_heisenberg(7))
        t1, t2 = _derivation_terms(rng, ders, 7, 40), _derivation_terms(rng, ders, 7, 40)
        assert len(_assert_kernel_matches_reference(t1, t2, 7)) > 40


def _assert_row_matches_reference(P1, row):
    # one kernel call for the whole row, checked pair by pair: the denominator is
    # d1 d2 and the nonzero blocks are the reference's; rhd drops the zero ones
    n = P1.dim
    results = _KERNEL(_read(P1), [_read(P2) for P2 in row])
    assert len(results) == len(row)
    for (den, acc), P2 in zip(results, row):
        assert den == P1.den * P2.den
        assert all(len(flat) == n * n for flat in acc.values())
        got = {g: Matrix._from_flat(n, n, [F(x, den) for x in flat])
               for g, flat in acc.items() if any(flat)}
        assert got == bracket_terms_per_pair(P1.terms, P2.terms)
        assert rhd(P1, P2).terms == got
    return results


@pytest.mark.parametrize("case", ["mixed-denominators", "zero-and-one-term", "cancelling",
                                  "L3-derivations"])
def test_row_kernel_matches_per_pair_reference(case):
    rng = random.Random(case)
    if case == "mixed-denominators":
        for n in (2, 3, 4):
            P1 = PolyRightMap(n, _random_terms(rng, n, rng.randint(1, 6), (1, 2, 3)))
            row = [PolyRightMap(n, _random_terms(rng, n, rng.randint(1, 6), (1, 5, 7)))
                   for _ in range(5)]
            _assert_row_matches_reference(P1, row)
    elif case == "zero-and-one-term":
        n = 3
        one = [PolyRightMap(n, _random_terms(rng, n, 1, (1, 2, 3))) for _ in range(3)]
        row = [PolyRightMap.zero(n), *one, PolyRightMap(n, _random_terms(rng, n, 4, (1, 2)))]
        for P1 in (PolyRightMap.zero(n), *one):
            _assert_row_matches_reference(P1, row)
        assert _assert_row_matches_reference(one[0], row)[0] == (one[0].den, {})
    elif case == "cancelling":
        t1, t2 = _cancelling_terms()
        P1, P2 = PolyRightMap(2, t1), PolyRightMap(2, t2)
        (_, acc), _, _ = _assert_row_matches_reference(P1, [P2, P1, PolyRightMap.zero(2)])
        assert not any(acc[(1, 1)])             # accumulated, all zero, and dropped
        assert (1, 1) not in rhd(P1, P2).monomials
    else:
        ders = derivation_matrices(builtin("L3"))
        assert any(d.den == 2 for d in ders)
        maps = [PolyRightMap(2, _derivation_terms(rng, ders, 2, rng.randint(1, 6)))
                for _ in range(6)]
        for P1 in maps:
            _assert_row_matches_reference(P1, maps)


# serialize_map of the rhd and lhd results below, recorded with the one-pair kernel
# that the row kernel replaced
_HEISENBERG5_BRACKETS_SHA256 = "8a1eba6d824dd6089e72206dd653d5628f565651b65e2a47adc12a86e94cc844"


def test_rhd_and_lhd_of_heisenberg5_maps_are_unchanged():
    rng = random.Random("heisenberg5-10-40")
    ders = derivation_matrices(_heisenberg(5))
    texts = []
    for count in (10, 20, 30, 40):
        t1, t2 = _derivation_terms(rng, ders, 5, count), _derivation_terms(rng, ders, 5, count)
        for cls, br in ((PolyRightMap, rhd), (PolyLeftMap, lhd)):
            P1, P2 = cls(5, t1), cls(5, t2)
            out = br(P1, P2)
            assert out.terms == bracket_terms_per_pair(P1.terms, P2.terms)
            texts.append(serialize_map(out))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == _HEISENBERG5_BRACKETS_SHA256


@pytest.mark.parametrize("cls", [PolyRightMap, PolyLeftMap])
def test_evaluation_matches_the_fraction_reference(cls):
    rng = random.Random(cls.__name__)
    for n in (1, 2, 3, 4):
        basis = [basis_vector(i, n) for i in range(n)]
        for count in range(min(6, math.comb(n + 3, 3)) + 1):
            P = cls(n, _random_terms(rng, n, count, (1, 2, 3)))
            terms = P.terms
            for _ in range(3):
                v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                x, y = random_rational_vector(rng, n), tuple(rng.randint(-2, 2) for _ in range(n))
                assert P.fixed_arg(v) == poly_value_reference(terms, v)
                frozen, free = (y, x) if cls is PolyRightMap else (x, y)
                assert P.evaluate(x, y) == poly_value_reference(terms, frozen).apply(free)
            B = basis_evaluation_tensor(P)
            for i in range(n):
                for j in range(n):
                    frozen, free = (j, i) if cls is PolyRightMap else (i, j)
                    assert B.evaluate(basis[i], basis[j]) == poly_value_reference(
                        terms, basis[frozen]).apply(basis[free])


def test_term_drawers_refuse_more_terms_than_monomials():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        _random_terms(rng, 1, 5, (1, 2))
    with pytest.raises(ValueError):
        _derivation_terms(rng, [Matrix.identity(1), 2 * Matrix.identity(1)], 1, 5)
    assert len(_random_terms(rng, 1, 4, (1, 2))) == 4


# --- the transpose suite must be able to fail --------------------------------

def _as_map(X, n):
    # a read operand (den, [(a, entries, rows)]) as the right map with those blocks
    flats = {a: [0] * (n * n) for a, _, _ in X[1]}
    for a, entries, _ in X[1]:
        for rn, k, v in entries:
            flats[a][rn + k] = v
    return PolyRightMap(n, {a: Matrix._of(n, n, X[0], flat) for a, flat in flats.items()})


def _on_maps(kernel, n):
    # the suites hand the kernel read operands; the mutants read theirs as maps, through
    # `.terms`, rebuilt from the operands
    return lambda P1, row: kernel(_as_map(P1, n), [_as_map(P, n) for P in row])


def _raw_form(terms, n):
    # a term dict as one entry of the row kernel's return list: (den, {monomial: entries})
    P = PolyRightMap(n, terms)
    return P.den, P.blocks


def _anticommutator_terms(P1, row):
    out = []
    for P2 in row:
        acc = {}
        for a, m in P1.terms.items():
            for b, nmat in P2.terms.items():
                g = tuple(x + y for x, y in zip(a, b))
                anti = m * nmat + nmat * m
                acc[g] = acc[g] + anti if g in acc else anti
        out.append(_raw_form(acc, P1.dim))
    return out


def _diagonal_terms(P1, row):
    out = []
    for P2 in row:
        acc = {}
        for a, m in P1.terms.items():
            if a in P2.terms:
                acc.update(bracket_terms_per_pair({a: m}, {a: P2.terms[a]}))
        out.append(_raw_form(acc, P1.dim))
    return out


def _spurious_terms(P1, row):
    # the right bracket plus E_11 (y_j^2 - sum_{k != j} y_j y_k), j the first index
    # with no y_j term in P1: over the frozen points that is nonzero at e_j alone,
    # where a degree-1 P1 is the zero matrix, so only a bracket value compared
    # with zero there can tell
    n = P1.dim
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    j = next((j for j in range(n) if units[j] not in P1.support()), None)
    if j is None:
        return _KERNEL(_read(P1), [_read(P2) for P2 in row])
    e11 = Matrix.from_col_major([1] + [0] * (n * n - 1), n)
    spurious = {tuple(2 * x for x in units[j]): e11}
    for k in range(n):
        if k != j:
            spurious[tuple(x + y for x, y in zip(units[j], units[k]))] = -e11
    out = []
    for P2 in row:
        terms = dict(bracket_terms_per_pair(P1.terms, P2.terms))
        for g, m in spurious.items():
            terms[g] = terms[g] + m if g in terms else m
        out.append(_raw_form(terms, n))
    return out


_IDENTITIES = ("bracket-transpose-identity", "matched-symmetry-swap", "mixed-symmetry-swap")


def _fail(i, j, **extra):
    return "fail", {"basis_pair": [i, j], **extra}


_PASS = ("pass", None)
_MUTANT_NAMES = ("heisenberg3", "L4", "L2", "L3")
# the suite's (status, witness) per identity under each broken operation, in
# _IDENTITIES order: which pair fails first is pinned, not only that one does
_PINNED = {
    "anticommutator": {
        "heisenberg3": [_fail(0, 0), _fail(0, 0), _fail(0, 0)],
        "L2": [_fail(0, 2), _fail(0, 1), _fail(0, 1)],
        "L3": [_fail(0, 0), _fail(0, 0), _fail(0, 0)],
        "L4": [_fail(0, 0), _fail(0, 0), _fail(0, 0)],
    },
    "dropped-cross-terms": {
        "heisenberg3": [_fail(0, 4), _fail(0, 3), _fail(0, 3)],
        "L2": [_fail(0, 3), _fail(0, 3), _fail(1, 1)],
        "L3": [_fail(0, 3), _fail(0, 1), _fail(0, 0)],
        "L4": [_fail(0, 1, doubles="symmetric"), _fail(0, 1), _fail(0, 0)],
    },
    "spurious-terms": {
        "heisenberg3": [_fail(0, 0), _fail(0, 0), _fail(0, 0)],
        "L2": [_fail(0, 0), _fail(0, 0), _fail(0, 0)],
        "L3": [_fail(0, 0), _fail(3, 0), _fail(0, 3)],
        "L4": [_fail(0, 0), _PASS, _PASS],
    },
    "left-untransposed": {
        "heisenberg3": [_fail(0, 2), _PASS, _fail(0, 2)],
        "L2": [_fail(0, 1), _PASS, _fail(0, 1)],
        "L3": [_fail(0, 1), _PASS, _fail(0, 0)],
        "L4": [_fail(0, 1), _PASS, _fail(0, 0)],
    },
    "left-negated": {
        "heisenberg3": [_fail(2, 3, doubles="symmetric-skew"), _PASS, _fail(0, 2)],
        "L2": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 1)],
        "L3": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 0)],
        "L4": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 0)],
    },
    "left-doubled": {
        "heisenberg3": [_fail(0, 1), _fail(0, 5), _fail(0, 2)],
        "L2": [_fail(0, 2), _PASS, _fail(0, 1)],
        "L3": [_fail(0, 2), _fail(0, 1), _fail(0, 0)],
        "L4": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 0)],
    },
    "row-shifted": {
        "heisenberg3": [_fail(0, 0), _fail(0, 0), _fail(0, 1)],
        "L2": [_fail(0, 1), _fail(0, 0), _fail(0, 0)],
        "L3": [_fail(0, 1), _fail(0, 0), _fail(0, 0)],
        "L4": [_fail(0, 1, doubles="symmetric"), _fail(0, 0), _fail(0, 0)],
    },
}


def _assert_pinned(mutant, name):
    results = verify_transpose_interplay(builtin(name))
    assert [r.identity for r in results] == list(_IDENTITIES)
    assert [(r.status, r.witness) for r in results] == _PINNED[mutant][name]


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_catches_anticommutators(monkeypatch, name):
    monkeypatch.setattr(brackets_module, "_bracket_terms",
                        _on_maps(_anticommutator_terms, builtin(name).dim))
    _assert_pinned("anticommutator", name)


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_catches_dropped_cross_terms(monkeypatch, name):
    # bracket only the terms of equal monomials, dropping y^(a+b) for a != b
    monkeypatch.setattr(brackets_module, "_bracket_terms",
                        _on_maps(_diagonal_terms, builtin(name).dim))
    _assert_pinned("dropped-cross-terms", name)
    if name == "L4":
        # L4's basis is y1 M and y2 M with one matrix M, so every bracket of
        # two basis maps is 0 with or without its cross terms: identity (a)
        # fails on the pairs of doubles it also runs on
        tensors = basis_tensors(right_bider_bilinear_space(builtin("L4")), 2)
        assert all(rhd(from_tensor(s), from_tensor(t)).is_zero() for s in tensors for t in tensors)


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_compares_brackets_where_an_operand_is_zero(monkeypatch, name):
    # the suite skips the product where a frozen operand is 0, but not the
    # comparison of the bracket's value there with 0: identity (a) fails at
    # the first pair
    monkeypatch.setattr(brackets_module, "_bracket_terms",
                        _on_maps(_spurious_terms, builtin(name).dim))
    _assert_pinned("spurious-terms", name)


def test_kernel_faults_reach_forked_workers(monkeypatch):
    # every suite runs in a worker, under the kernel the test patched before the fork
    A = builtin("heisenberg3")
    monkeypatch.setattr(brackets_module, "_bracket_terms", _on_maps(_spurious_terms, A.dim))
    monkeypatch.setattr(verify_module, "usable_cpus", lambda: 1)
    one = verify_module.run_all(A)
    workers_only(monkeypatch, cpus=3)
    results = verify_module.run_all(builtin("heisenberg3"))
    assert results == one
    assert [(r.status, r.witness) for r in results if r.suite == "transpose"] == \
        _PINNED["spurious-terms"]["heisenberg3"]


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_catches_an_untransposed_left_map(monkeypatch, name):
    # from_tensor(B).transpose() is the left map of B's transpose, not of B.
    # On skew doubles that negates both operands and leaves their bracket,
    # so the matched swap still passes
    monkeypatch.setattr(brackets_module, "from_tensor_left",
                        lambda B: from_tensor(B).transpose())
    _assert_pinned("left-untransposed", name)


@pytest.mark.parametrize("name", _MUTANT_NAMES)
@pytest.mark.parametrize("mutant, factor", [("left-negated", -1), ("left-doubled", 2)])
def test_transpose_suite_brackets_left_maps_that_read_otherwise(monkeypatch, mutant, factor,
                                                                name):
    # a left map scaled by -1 or 2 no longer reads as the right map it stands for, so its
    # rows are bracketed apart. Negated, the main and matched rows negate both operands
    # and keep their brackets; only the mixed rows, with one operand negated, can tell,
    # and (a) on the doubles (S_i, K_i+1) is read from them. Doubled, the matched swap
    # fails on heisenberg3 through the K row alone
    left = brackets_module.from_tensor_left
    monkeypatch.setattr(brackets_module, "from_tensor_left", lambda B: factor * left(B))
    _assert_pinned(mutant, name)


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_catches_a_row_kernel_out_of_order(monkeypatch, name):
    # each row's results shifted by one: every result is the bracket of a real
    # pair, and both sides shift alike, so only the compositions can tell
    def shifted(P1, row):
        out = _KERNEL(P1, row)
        return out[1:] + out[:1]
    monkeypatch.setattr(brackets_module, "_bracket_terms", shifted)
    _assert_pinned("row-shifted", name)


# (a) fails first on a pair of doubles (S_i, K_i+1): only the brackets of a symmetric
# map with a skew one are wrong, so identity (a) holds on basis pairs and on (S_i, S_i+1)
_SYM_SKEW_DOUBLED = {
    "heisenberg3": [_fail(2, 3, doubles="symmetric-skew"), _PASS, _fail(0, 2)],
    "L2": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 1)],
    "L3": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 0)],
    "L4": [_fail(0, 1, doubles="symmetric-skew"), _PASS, _fail(0, 0)],
}


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_catches_a_wrong_symmetric_skew_bracket(monkeypatch, name):
    # the bracket of a symmetric map with a skew one, pair by pair, doubled; the left
    # rows are the right ones, as the left maps read as the right maps
    n = builtin(name).dim

    def doubled(P1, row):
        out = _KERNEL(P1, row)
        if not to_tensor(_as_map(P1, n)).is_symmetric():
            return out
        return [(den, {g: [2 * x for x in flat] for g, flat in terms.items()})
                if to_tensor(_as_map(P2, n)).is_skew() else (den, terms)
                for P2, (den, terms) in zip(row, out)]
    monkeypatch.setattr(brackets_module, "_bracket_terms", doubled)
    results = verify_transpose_interplay(builtin(name))
    assert [(r.status, r.witness) for r in results] == _SYM_SKEW_DOUBLED[name]


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_transpose_suite_compares_values_not_integer_forms(monkeypatch, name):
    # a kernel that returns each bracket over twice its denominator d1 d2 is
    # still right: the suite cross-multiplies and passes
    def doubled(P1, row):
        return [(2 * den, {g: [2 * x for x in flat] for g, flat in terms.items()})
                for den, terms in _KERNEL(P1, row)]
    monkeypatch.setattr(brackets_module, "_bracket_terms", doubled)
    assert all(r.status == "pass" for r in verify_transpose_interplay(builtin(name)))


# --- the Lie-law suite must be able to fail -----------------------------------

_LAWS = ("closure", "bilinearity", "alternativity", "jacobi")


def _sample_fails(*samples):
    # (status, witness) per law in _LAWS order: None passes, s fails first at sample s
    return [_PASS if s is None else ("fail", {"sample": s, "seed": 0}) for s in samples]


_LIE_MUTANTS = {"anticommutator": _anticommutator_terms, "dropped-cross-terms": _diagonal_terms,
                "spurious-terms": _spurious_terms}
# both sides' (status, witness) lists under each broken kernel, at the default 25
# samples and seed 0: which sample fails first is pinned, not only that one does
_LIE_PINNED = {
    "anticommutator": {
        "heisenberg3": {"right": _sample_fails(0, None, 0, 0),
                        "left": _sample_fails(0, None, 0, 0)},
        "L2": {"right": _sample_fails(None, None, 0, 0), "left": _sample_fails(None, None, 0, 0)},
        "L3": {"right": _sample_fails(0, None, 0, 0), "left": _sample_fails(0, None, 0, 0)},
        "L4": {"right": _sample_fails(None, None, 0, 0), "left": _sample_fails(None, None, 0, 0)},
    },
    "dropped-cross-terms": {
        "heisenberg3": {"right": _sample_fails(None, None, None, 2),
                        "left": _sample_fails(None, None, None, 2)},
        "L2": {"right": _sample_fails(None, None, None, 5),
               "left": _sample_fails(None, None, None, 10)},
        "L3": {"right": _sample_fails(None, None, None, 5),
               "left": _sample_fails(None, None, None, 1)},
        "L4": {"right": _sample_fails(None, None, None, None),
               "left": _sample_fails(None, None, None, None)},
    },
    "spurious-terms": {
        "heisenberg3": {"right": _sample_fails(None, 6, None, None),
                        "left": _sample_fails(None, 6, None, None)},
        "L2": {"right": _sample_fails(6, 2, 6, 5), "left": _sample_fails(19, 3, 19, 3)},
        "L3": {"right": _sample_fails(6, 2, 6, 5), "left": _sample_fails(19, 3, 19, 3)},
        "L4": {"right": _sample_fails(1, 0, 1, 0), "left": _sample_fails(1, 0, 1, 0)},
    },
}


@pytest.mark.parametrize("mutant", list(_LIE_MUTANTS))
@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_lie_law_suite_catches_broken_kernels(monkeypatch, mutant, name):
    # both sides of the suite call the patched kernel, _bracket_terms, directly.
    # The table was recorded when every bracket of the suite was a one-pair call
    # to a kernel that took maps only, and must not change
    A = builtin(name)
    monkeypatch.setattr(brackets_module, "_bracket_terms", _on_maps(_LIE_MUTANTS[mutant], A.dim))
    for side in ("right", "left"):
        results = verify_lie_algebra(A, side)
        assert [r.identity for r in results] == list(_LAWS)
        assert [(r.status, r.witness) for r in results] == _LIE_PINNED[mutant][name][side]


# under a row-shifted kernel each result is the bracket of another pair of its row,
# always of two members, so closure holds. The one-pair calls of _LIE_PINNED's
# recording could not show a shift; b1's row of five pairs can. On L4 every bracket
# of its biderivations vanishes, so no shift can show
_LIE_ROW_SHIFTED = {name: _sample_fails(None, 0, 0, 0) for name in ("heisenberg3", "L2", "L3")}
_LIE_ROW_SHIFTED["L4"] = _sample_fails(None, None, None, None)


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_lie_law_suite_catches_a_row_kernel_out_of_order(monkeypatch, name):
    def shifted(P1, row):
        out = _KERNEL(P1, row)
        return out[1:] + out[:1]
    monkeypatch.setattr(brackets_module, "_bracket_terms", shifted)
    for side in ("right", "left"):
        results = verify_lie_algebra(builtin(name), side)
        assert [(r.status, r.witness) for r in results] == _LIE_ROW_SHIFTED[name]


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_lie_law_suite_compares_values_not_integer_forms(monkeypatch, name):
    # a kernel that returns each bracket over twice its denominator d1 d2 is still right
    def doubled(P1, row):
        return [(2 * den, {g: [2 * x for x in flat] for g, flat in terms.items()})
                for den, terms in _KERNEL(P1, row)]
    monkeypatch.setattr(brackets_module, "_bracket_terms", doubled)
    for side in ("right", "left"):
        assert all(r.status == "pass" for r in verify_lie_algebra(builtin(name), side))
