import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from biderlie import (Algebra, bider_space, bracket, derivation_space, left_bider_bilinear_space,
                      linalg, right_bider_bilinear_space)
from biderlie.derivations import derivation_rows
from biderlie.linalg import (Matrix, Ratio, SubspaceBasis, _eliminate, canonicalize,
                             intersect, lowest_terms, mat_commutator, nullspace, random_below,
                             rref, solve_homogeneous, solve_over, vector)

from oracles import (forward_elimination_rank, fraction_combination, full_space,
                     integers_per_entry, intersect_reference, is_subspace_of, matrix_product,
                     nullspace_reference, rref_reference,
                     sympy_canonical_nullspace, sympy_intersection, sympy_nullspace_dim,
                     sympy_rref)

F = Fraction


def test_rref_identity():
    m = Matrix.identity(3)
    red, rank = rref(m)
    assert red == m
    assert rank == 3


def test_rref_zero():
    m = Matrix.zeros(2, 4)
    red, rank = rref(m)
    assert red == m
    assert rank == 0


def test_rref_dependent_rows():
    # hand elimination: R2 - 2 R1 kills the second row
    red, rank = rref(Matrix([[1, 2], [2, 4]]))
    assert red == Matrix([[1, 2], [0, 0]])
    assert rank == 1


def test_nullspace_identity_is_trivial():
    assert nullspace(Matrix.identity(4)).dim == 0


def test_nullspace_zero_row_is_everything():
    ns = nullspace(Matrix.zeros(1, 5))
    assert ns.dim == 5
    assert ns == full_space(5)


def test_nullspace_vectors_annihilate():
    m = Matrix([[1, 1, 0]])
    ns = nullspace(m)
    assert ns.dim == 2
    for v in ns.vectors:
        assert not any(m.apply(v))


def test_canonicalize_scaling():
    got = canonicalize([(2, 0), (0, 3)])
    assert got.vectors == (vector((1, 0)), vector((0, 1)))


def test_canonicalize_collapses_dependent():
    got = canonicalize([(1, 1), (2, 2)])
    assert got.vectors == (vector((1, 1)),)


def test_canonicalize_hand_rref():
    # (1,2,3) - 2*(0,1,1) = (1,0,1): pivots in columns 1 and 2
    got = canonicalize([(1, 2, 3), (0, 1, 1)])
    assert got.vectors == (vector((1, 0, 1)), vector((0, 1, 1)))


def test_canonicalize_needs_ambient_dim_for_empty():
    with pytest.raises(ValueError):
        canonicalize([])
    assert canonicalize([], 4) == SubspaceBasis(4, ())


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw, max_cols=6):
    """Integer matrices of up to max_cols columns and three times as many rows, with
    zero rows and repeats of earlier rows mixed in: tall ones reach full column rank
    with rows left over."""
    cols = draw(st.integers(1, max_cols))
    rows = draw(st.integers(1, 3 * cols))
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "repeat")) if data
                    else st.just("drawn"))
        if kind == "zero":
            data.append([0] * cols)
        elif kind == "repeat":
            data.append(data[draw(st.integers(0, len(data) - 1))])
        else:
            data.append(draw(st.lists(small_entries, min_size=cols, max_size=cols)))
    return Matrix(data)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    _, rank = rref(m)
    assert rank + nullspace(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_members_are_exact_solutions(m):
    for v in nullspace(m).vectors:
        assert not any(m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(m):
    red, rank = rref(m)
    oracle_rows, oracle_rank = sympy_rref(m.data)
    assert rank == oracle_rank
    assert [list(r) for r in red.data] == oracle_rows
    want, want_rank = rref_reference(m)
    assert (red.data, rank) == (want.data, want_rank)
    assert rank == forward_elimination_rank(m.data)
    assert nullspace(m).dim == sympy_nullspace_dim(m.data)


sevenths = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def echelon_inputs(draw, max_dim=7):
    """Rational matrices with denominators up to 7, sparse or dense: of full or
    deficient rank (tall, wide or square), with zero rows and columns and with
    rows duplicated or negated from another row."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    entries = draw(st.sampled_from((sevenths, st.one_of(st.just(F(0)), sevenths))))
    k = draw(st.integers(0, min(rows, cols)))           # a bound on the rank
    if k == 0:
        data = [[F(0)] * cols for _ in range(rows)]
    else:
        left = Matrix(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                    min_size=rows, max_size=rows)))
        right = Matrix(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                     min_size=k, max_size=k)))
        data = [list(row) for row in (left * right).data]
    for r in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        data[r] = [F(0)] * cols
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in data:
            row[c] = F(0)
    for dst, src, sign in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                                  st.integers(0, rows - 1),
                                                  st.sampled_from((1, -1))), max_size=2)):
        data[dst] = [sign * x for x in data[src]]
    return Matrix(data)


def _assert_rref_is_reference(m):
    red, rank = rref(m)
    want, want_rank = rref_reference(m)
    assert rank == want_rank
    assert red.data == want.data
    assert all(type(x) is Fraction for row in red.data for x in row)
    # each row scaled by a positive integer to integers: the same echelon form
    ints = []
    for row in m.data:
        den = math.lcm(*(x.denominator for x in row))
        ints.append(tuple(x.numerator * (den // x.denominator) for x in row))
    assert rref(Matrix(ints)) == (red, rank)


@settings(max_examples=300, deadline=None)
@given(echelon_inputs())
def test_rref_matches_dense_reference(m):
    # the sparse integer kernel reproduces the dense Fraction elimination
    # exactly: rank, pivots and every entry
    _assert_rref_is_reference(m)


@settings(max_examples=100, deadline=None)
@given(echelon_inputs())
def test_rref_eliminates_each_row_at_most_once_per_column(m):
    # each forward step moves a row's first nonzero strictly right, and
    # back-substitution clears each pivot column once in each row above it:
    # at most rows * cols + rank^2 eliminations, however the pivots are picked
    original, calls = linalg._eliminate, 0
    budget = m.rows * m.cols + min(m.rows, m.cols) ** 2
    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise AssertionError(f"more than {budget} eliminations")
        return original(*args)
    linalg._eliminate = counted
    try:
        _, rank = rref(m)
    finally:
        linalg._eliminate = original
    assert calls <= m.rows * m.cols + rank ** 2


def test_rref_reads_no_row_past_full_column_rank(monkeypatch):
    # the k x k identity gives every column a pivot before any elimination, so the
    # rows after it, drawn, zero, dense or repeated, are never read
    def refused(*args):
        raise AssertionError("_eliminate called")
    monkeypatch.setattr(linalg, "_eliminate", refused)
    for k in range(1, 7):
        rng = random.Random(k)
        rest = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(2 * k)]
        m = Matrix(Matrix.identity(k).data + tuple(rest + [[0] * k, [1] * k, rest[0]]))
        assert rref(m) == (Matrix(Matrix.identity(k).data + ((0,) * k,) * (m.rows - k)), k)
    monkeypatch.undo()
    # orthogonal idempotents e1, e2, e3 with e1 e2 = e3: its 16 Der rows in 9 unknowns
    # have full column rank, so every space built on Der is zero
    A = Algebra.from_entries("idem3", 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1, (0, 1, 2): 1},
                             "generic")
    assert (len(derivation_rows(A)), len(derivation_rows(A)[0])) == (16, 9)
    assert [space(A).dim for space in (derivation_space, right_bider_bilinear_space,
                                       left_bider_bilinear_space, bider_space)] == [0] * 4


integer_rows = st.dictionaries(st.integers(0, 5), st.integers(-60, 60).filter(bool), max_size=6)


@settings(max_examples=200, deadline=None)
@given(integer_rows, integer_rows, st.integers(0, 5), st.integers(-60, 60).filter(bool),
       st.integers(-60, 60).filter(bool))
def test_eliminate_gives_the_primitive_row_of_the_rational_step(row, piv, col, f, p):
    # row - (f/p) piv up to a nonzero factor, zero at col, divided by its content:
    # without the division the entries would grow from step to step
    row, piv = {**row, col: f}, {**piv, col: p}
    got = _eliminate(dict(row), dict(piv), col)
    want = [F(row.get(c, 0)) - F(f, p) * piv.get(c, 0) for c in range(6)]
    assert col not in got and all(got.values())
    assert (not got) == (not any(want))
    if got:
        assert math.gcd(*got.values()) == 1
        lead = next(c for c in range(6) if want[c])
        ratio = F(got[lead]) / want[lead]
        assert all(got.get(c, 0) == ratio * want[c] for c in range(6))


def _hilbert(rows, cols):
    return Matrix([[F(1, i + j + 1) for j in range(cols)] for i in range(rows)])


# unimodular; in this basis heisenberg5's products are dense with constants in -2..2
DENSE_BASIS = ((1, 0, -1, 0, -1), (-1, 1, 1, 0, 2), (-1, -1, 2, 0, 1), (0, -1, 1, 1, 0),
               (-1, 1, 2, 0, 4))


def dense_heisenberg5():
    """heisenberg5 in the basis f_i = P e_i, P = DENSE_BASIS (inverted by sympy)."""
    entries = {}
    for i in range(2):
        entries[(i, 2 + i, 4)] = F(1)
        entries[(2 + i, i, 4)] = F(-1)
    A = Algebra.from_entries("heisenberg5", 5, entries, "lie")
    P = Matrix(DENSE_BASIS)
    inv = sympy.Matrix(DENSE_BASIS).inv()
    P_inv = Matrix([[F(int(x.p), int(x.q)) for x in inv.row(r)] for r in range(5)])
    cols = [P.col(i) for i in range(5)]
    c = [[P_inv.apply(bracket(A, cols[i], cols[j])) for j in range(5)] for i in range(5)]
    return Algebra("heisenberg5-dense", 5, c, "lie")


@pytest.mark.parametrize("shape", [(8, 8), (6, 10), (10, 6)])
def test_rref_matches_dense_reference_on_hilbert_matrices(shape):
    # coefficient growth: scaled to integers, the rows have entries near lcm(1..16)
    _assert_rref_is_reference(_hilbert(*shape))


def test_rref_matches_dense_reference_on_the_dense_heisenberg5_system():
    rows = derivation_rows(dense_heisenberg5())
    _assert_rref_is_reference(Matrix(rows))
    # and column-reversed, the way `nullspace` eliminates it
    _assert_rref_is_reference(Matrix(row[::-1] for row in rows))


def test_contains_reads_exact_entries_as_they_are():
    # ints and Fractions go in as they are and anything else through `vector`;
    # membership must read the same for every form of one vector
    space = canonicalize([(1, F(1, 2), 0, 2), (0, 0, 1, F(-1, 3))])
    member = (F(1, 3), F(1, 6), F(-2, 7), F(2, 3) + F(2, 21))
    cases = {
        (F(2), F(1), F(3), F(3)): True,
        member: True,
        (F(1), F(1), F(0), F(0)): False,
        (F(0), F(0), F(0), F(1, 5)): False,
    }
    for v, want in cases.items():
        forms = [v, list(v), tuple(str(x) for x in v), (str(v[0]), v[1], v[2], v[3])]
        if all(x.denominator == 1 for x in v):
            forms += [tuple(int(x) for x in v), (int(v[0]), v[1], str(v[2]), v[3])]
        for form in forms:
            assert space.contains(form) is want, form
            assert space.contains(vector(form)) is want
        for bad in (v[:3], list(v) + [0], tuple(str(x) for x in v[:3])):
            with pytest.raises(ValueError):
                space.contains(bad)


@settings(max_examples=40, deadline=None)
@given(matrices(max_cols=3), st.lists(st.tuples(small_entries, small_entries, small_entries),
                                      min_size=1, max_size=3))
def test_canonicalize_idempotent_and_span_invariant(m, coeff_rows):
    base = canonicalize(m.data, m.cols)
    again = canonicalize(base.vectors, m.cols)
    assert base == again
    # appending rational combinations of the rows never changes the span
    extra = []
    for coeffs in coeff_rows:
        comb = [Fraction(0)] * m.cols
        for c, row in zip(coeffs, m.data):
            for idx, x in enumerate(row):
                comb[idx] += Fraction(c) * x
        extra.append(tuple(comb))
    widened = canonicalize(list(m.data) + extra, m.cols)
    assert widened == base


fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def shaped_matrices(draw, max_dim=6):
    """Dense, low-rank, full-rank and zero matrices; the dense and low-rank
    ones also get zero rows and zero columns."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    shape = draw(st.sampled_from(("dense", "low-rank", "full-rank", "zero")))
    if shape == "zero":
        return Matrix.zeros(rows, cols)
    if shape == "low-rank":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        left = Matrix(draw(st.lists(st.lists(fractions, min_size=k, max_size=k),
                                    min_size=rows, max_size=rows)))
        right = Matrix(draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols),
                                     min_size=k, max_size=k)))
        data = [list(row) for row in (left * right).data]
    else:
        data = draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    if shape == "full-rank":
        # a strictly diagonally dominant leading block has full rank
        for i in range(min(rows, cols)):
            data[i][i] += 100
        return Matrix(data)
    for r in draw(st.sets(st.integers(0, rows - 1))):
        data[r] = [0] * cols
    for c in draw(st.sets(st.integers(0, cols - 1))):
        for row in data:
            row[c] = 0
    return Matrix(data)


@settings(max_examples=150, deadline=None)
@given(shaped_matrices())
def test_nullspace_matches_two_pass_reference_and_sympy(m):
    # one elimination of the column-reversed matrix gives the canonical
    # basis the two-pass solver and sympy's canonicalized kernel give
    got = nullspace(m)
    assert got == nullspace_reference(m)
    assert got == sympy_canonical_nullspace(m)
    assert got.dim == m.cols - forward_elimination_rank(m.data)
    assert all(type(x) is Fraction for v in got.vectors for x in v)


@st.composite
def subspace_pairs(draw, max_dim=6):
    """Two subspaces of one Q^d, either side possibly 0 or all of Q^d; in a
    third of the draws a lies inside b."""
    d = draw(st.integers(1, max_dim))
    def span(max_vectors):
        vecs = draw(st.lists(st.lists(fractions, min_size=d, max_size=d), max_size=max_vectors))
        return canonicalize(vecs, d)
    a, b = span(d + 1), span(d + 1)
    if draw(st.integers(0, 2)) == 0:
        b = canonicalize(list(a.vectors) + list(b.vectors), d)
    return a, b


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_intersect_matches_canonicalizing_reference_and_sympy(pair):
    a, b = pair
    got = intersect(a, b)
    assert got == intersect_reference(a, b)
    assert got == sympy_intersection(a, b)
    assert got == intersect(b, a)
    if is_subspace_of(a, b):
        assert got == a


def test_intersect_with_a_zero_side_and_a_subspace():
    a = canonicalize([(1, 2, 0, 1), (0, 1, F(1, 2), 0)])
    zero = SubspaceBasis(4, ())
    for x, y in ((a, zero), (zero, a), (zero, zero)):
        assert intersect(x, y) == intersect_reference(x, y) == zero
    wider = canonicalize(list(a.vectors) + [(0, 0, 1, 3)])
    assert intersect(a, wider) == intersect(wider, a) == a
    assert intersect(a, wider) == sympy_intersection(a, wider)


def test_intersect_returns_its_first_argument_when_it_lies_in_the_second():
    # every residual is zero, so no row is left to solve
    a = canonicalize([(1, 2, 0, 1), (0, 1, F(1, 2), 0)])
    wider = canonicalize(list(a.vectors) + [(0, 0, 1, 3)])
    zero = SubspaceBasis(4, ())
    for x, y in ((a, wider), (a, a), (wider, full_space(4)), (zero, a)):
        assert intersect(x, y) is x
    assert intersect(wider, a) == a and intersect(wider, a) is not a


def test_solve_over_without_a_nonzero_row_returns_the_space():
    space = canonicalize([(1, 0, 2), (0, 1, F(-1, 3))])
    assert solve_over(space, []) is space
    assert solve_over(space, [[0, 0], (0, 0)]) is space
    assert solve_over(space, [[0, 0], [1, 0]]) == canonicalize([(0, 1, F(-1, 3))])


def test_solve_homogeneous_refuses_rows_of_the_wrong_length():
    # a row of 3 entries in 2 unknowns used to be solved in Q^3
    with pytest.raises(ValueError):
        solve_homogeneous([[1, 0, 0]], 2)
    with pytest.raises(ValueError):
        solve_homogeneous([[1, 0], [1]], 2)
    assert solve_homogeneous([], 2) == full_space(2)
    assert solve_homogeneous([[1, 0]], 2) == SubspaceBasis(2, ((F(0), F(1)),))


def test_member_combines_the_basis():
    space = canonicalize([(1, 0, 2), (0, 1, F(-1, 3))])
    assert space.member([F(1, 2), 3]) == (F(1, 2), F(3), F(0))
    assert space.member([0, 0]) == (F(0),) * 3
    with pytest.raises(ValueError):
        space.member([1])


def test_membership_and_subspace():
    basis = canonicalize([(1, 0, 1), (0, 1, 0)])
    assert basis.contains((2, 3, 2))
    assert not basis.contains((0, 0, 1))
    sub = canonicalize([(1, 1, 1)])
    assert is_subspace_of(sub, basis)
    assert not is_subspace_of(basis, sub)


def test_intersection():
    a = canonicalize([(1, 0, 0), (0, 1, 0)])
    b = canonicalize([(0, 1, 0), (0, 0, 1)])
    got = intersect(a, b)
    assert got == canonicalize([(0, 1, 0)])
    assert intersect(a, canonicalize([], 3)) == SubspaceBasis(3, ())
    assert intersect(a, full_space(3)) == a


def test_commutator_fused_path_matches_definition():
    a = Matrix([[F(1, 2), 1, 0], [0, F(-2, 3), 1], [1, 0, 1]])
    b = Matrix([[0, 1, F(3, 5)], [1, 0, 0], [0, F(1, 7), 2]])
    assert mat_commutator(a, b) == a * b - b * a


def test_integer_product_kernel_matches_entrywise_fractions():
    # Matrix products and commutators share one integer-scaled product loop;
    # check it against products taken entry by entry in Fractions
    rng = random.Random(5)
    def rand(rows, cols):
        return Matrix([[F(rng.choice((0, 0, 1, -2, 3)), rng.choice((1, 2, 3, 7)))
                        for _ in range(cols)] for _ in range(rows)])
    for rows, inner, cols in [(1, 1, 1), (2, 3, 4), (4, 2, 3), (5, 5, 5)]:
        a, b = rand(rows, inner), rand(inner, cols)
        assert a * b == matrix_product(a, b)
    for n in (1, 2, 3, 6):
        a, b = rand(n, n), rand(n, n)
        assert mat_commutator(a, b) == matrix_product(a, b) - matrix_product(b, a)
    assert Matrix.zeros(2, 3) * rand(3, 2) == Matrix.zeros(2, 2)


def _combination(coeffs, mats, rows, cols):
    # the lift of coeffs over the matrices flattened into rows: one product of the
    # coefficient row with the stack, read back as a rows x cols matrix
    stack = Matrix._from_flat(len(mats), rows * cols,
                              [x for m in mats for row in m.data for x in row])
    lift = Matrix._from_flat(1, len(coeffs), coeffs) * stack
    return Matrix._of(rows, cols, lift.den, lift.ints)


def test_integer_combination_kernel_matches_fraction_fold():
    # sum_i f_i M_i as the coefficient row times the stacked matrices, against a fold of
    # Fraction scalar products and sums; a vector is the one-row case
    rng = random.Random(6)
    def rand(rows, cols):
        return Matrix([[F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 7))
                        for _ in range(cols)] for _ in range(rows)])
    for rows, cols, count in [(1, 1, 1), (1, 8, 4), (2, 2, 3), (3, 3, 6), (4, 2, 5)]:
        for _ in range(10):
            mats = [rand(rows, cols) for _ in range(count)]
            coeffs = [rng.choice((0, 1, -3, F(2, 7), F(-5, 6))) for _ in mats]
            want = fraction_combination(coeffs, mats, Matrix.zeros(rows, cols))
            got = _combination(coeffs, mats, rows, cols)
            assert got == want
            assert all(type(x) is Fraction for row in got.data for x in row)
    m = rand(2, 2)
    assert _combination([0, F(0)], [m] * 2, 2, 2) == Matrix.zeros(2, 2)
    assert _combination([], [], 2, 2) == Matrix.zeros(2, 2)


def test_from_flat_reads_drawn_ratios_as_their_fractions():
    # the sampled suites draw coefficients as unreduced (p, q) pairs
    ratios = [Ratio(2, 2), Ratio(0, 3), Ratio(-4, 6)]
    got = Matrix._from_flat(1, 3, ratios)
    assert got == Matrix([[F(1), F(0), F(-2, 3)]])
    assert got.data[0] == tuple(F(*r) for r in ratios)
    assert Matrix._from_flat(1, 2, [Ratio(0, 3), Ratio(0, 2)]) == Matrix.zeros(1, 2)
    assert Matrix._from_flat(1, 3, [Ratio(-4, 6), 1, F(1, 2)]) == Matrix([[F(-2, 3), 1, F(1, 2)]])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).apply((1, 2, 3))


def test_col_major_round_trip():
    m = Matrix([[1, 2], [3, 4]])
    assert m.to_col_major() == vector((1, 3, 2, 4))
    assert Matrix.from_col_major(m.to_col_major(), 2) == m


@pytest.mark.parametrize("entries", [
    [0, 3, -6, 9, 2 ** 70],
    [0, 0, 0, 0],
    [1, F(1, 2), 0, F(-2, 3), F(4)],
    [F(2), F(4), F(-6), F(0)],
    ["1/2", "3", "-0", "4/6", " 5 "],
    [True, False, 2, True],
    [True, F(1, 3), "2/5", -7],
])
def test_from_flat_keeps_the_integer_form_of_every_entry_type(entries):
    # all-int input is taken as it is; anything else, bools included, is read
    # entry by entry as before, and the entries always come out as ints
    want = integers_per_entry(entries)
    assert linalg._integers(entries) == linalg._integers(iter(entries)) == want
    m = Matrix._from_flat(1, len(entries), entries)
    assert (m.den, m.ints) == lowest_terms(*want)
    assert all(type(x) is int for x in m.ints)
    assert m == Matrix([entries])


def test_matrices_without_rows_or_columns():
    # the shape is stored, so an empty side is a matrix like any other
    for m, shape in ((Matrix.identity(0), (0, 0)), (Matrix.zeros(0, 3), (0, 3)),
                     (Matrix.zeros(3, 0).transpose(), (0, 3)), (Matrix.zeros(2, 0), (2, 0))):
        assert (m.rows, m.cols) == shape and m.is_zero()
        assert m.data == ((),) * shape[0] and (m.den, m.ints) == (1, ())
    assert Matrix.zeros(3, 0).transpose() == Matrix.zeros(0, 3) != Matrix.zeros(3, 0)
    assert Matrix.zeros(2, 0) * Matrix.zeros(0, 3) == Matrix.zeros(2, 3)
    assert Matrix.zeros(0, 2) * Matrix([[1, 2], [3, 4]]) == Matrix.zeros(0, 2)
    assert Matrix.identity(0) * Matrix.identity(0) == Matrix.identity(0)
    assert Matrix.zeros(2, 0).apply(()) == (F(0), F(0)) and Matrix.zeros(0, 2).apply((1, 2)) == ()
    assert solve_homogeneous([], 0) == SubspaceBasis(0, ()) == nullspace(Matrix.zeros(0, 0))


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """A matrix of 0-4 rows and columns, or the given shape, with zero entries and
    denominators 1-7, built from its `Fraction` entries."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    entries = draw(st.lists(st.builds(F, st.integers(-9, 9) | st.just(0), st.integers(1, 7)),
                            min_size=rows * cols, max_size=rows * cols))
    return Matrix._from_flat(rows, cols, entries)


def _assert_integer_form(m):
    # den > 0, ints in lowest terms, and `data` the `Fraction` view of den * M
    assert m.den > 0 and math.gcd(m.den, *m.ints) == 1 and len(m.ints) == m.rows * m.cols
    assert m.data == tuple(tuple(F(m.ints[r * m.cols + c], m.den) for c in range(m.cols))
                           for r in range(m.rows))
    assert all(type(x) is Fraction for row in m.data for x in row)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_matrix_matches_the_fraction_oracles(data):
    a = data.draw(rational_matrices())
    rows, cols = a.rows, a.cols
    b = data.draw(rational_matrices(rows, cols))
    c = data.draw(rational_matrices(cols, data.draw(st.integers(0, 4))))
    f = data.draw(st.builds(F, st.integers(-7, 7), st.integers(1, 7)))
    zero = Matrix.zeros(rows, cols)
    results = {
        "sum": (a + b, fraction_combination((1, 1), (a, b), zero)),
        "difference": (a - b, fraction_combination((1, -1), (a, b), zero)),
        "negation": (-a, fraction_combination((-1,), (a,), zero)),
        "scalar": (f * a, fraction_combination((f,), (a,), zero)),
        "combination": (_combination((f, 3, -1), (a, b, a), rows, cols),
                        fraction_combination((f, 3, -1), (a, b, a), zero)),
        "product": (a * c, matrix_product(a, c)),
    }
    if rows == cols:
        results["commutator"] = (mat_commutator(a, b), matrix_product(a, b) - matrix_product(b, a))
    for name, (got, want) in results.items():
        _assert_integer_form(got)
        assert (got.rows, got.cols) == (want.rows, want.cols) and got.data == want.data, name
    t = a.transpose()
    _assert_integer_form(t)
    assert t.data == tuple(tuple(row[j] for row in a.data) for j in range(cols))
    v = [x for row in c.transpose().data[:1] for x in row] or [F(0)] * cols
    assert a.apply(v) == tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in a.data)
    if rows == cols:
        assert Matrix.from_col_major(a.to_col_major(), rows) == a
        assert a.to_col_major() == tuple(a.data[r][k] for k in range(cols) for r in range(rows))


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.integers(1, 6))
def test_integer_forms_of_one_matrix_compare_and_hash_equal(m, k):
    _assert_integer_form(m)
    # any positive multiple of the integer form is reduced to the same lowest terms
    for other in (Matrix._of(m.rows, m.cols, k * m.den, [k * x for x in m.ints]),
                  Matrix._of(m.rows, m.cols, m.den * 7, [7 * x for x in m.ints]),
                  Matrix._from_flat(m.rows, m.cols, [x for row in m.data for x in row])):
        _assert_integer_form(other)
        assert other == m and hash(other) == hash(m)
        assert (other.den, other.ints) == (m.den, m.ints)
    if m.rows:
        assert Matrix(m.data) == m and hash(Matrix(m.data)) == hash(m)
    if not m.is_zero():
        assert 2 * m != m and -m != m and m != Matrix.zeros(m.rows, m.cols)


@pytest.mark.parametrize("call", ["random_below(rng, (3, 0))", "random_tensor(rng, 2, span=-1)",
                                  "random_ratio(rng, span=0)",
                                  "random_multi_index(rng, 3, max_degree=-1)"])
def test_empty_draw_ranges_raise_as_randrange_does(call):
    # each runs in its own process under a timeout, so a draw that never returns fails
    # the test instead of hanging the suite
    code = ("import random\n"
            "from biderlie.bilinear import random_tensor\n"
            "from biderlie.brackets import random_multi_index, random_ratio\n"
            "from biderlie.linalg import random_below\n"
            "rng = random.Random(0)\n"
            f"try:\n    {call}\nexcept ValueError as e:\n    print('ValueError:', e)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(linalg.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 0 and proc.stdout.startswith("ValueError: empty range"), proc


def test_random_below_draws_as_randrange_does():
    # the same values, and the same generator state after them, at every width in any order
    for seed in range(51):
        widths = [w for w in range(1, 71) for _ in range(3)]
        random.Random(-seed).shuffle(widths)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert random_below(ours, widths) == [theirs.randrange(w) for w in widths]
        assert ours.getstate() == theirs.getstate()
