import random
from fractions import Fraction

import pytest

from biderlie import (BUILTIN_NAMES, Algebra, BilinearTensor, PolyLeftMap, PolyRightMap, ad,
                      bracket, builtin, commutator, derivation_matrices, derivation_space,
                      is_derivation, is_left_bider, is_left_bider_poly, is_right_bider,
                      is_right_bider_poly, left_bider_bilinear_space, parse_algebra,
                      right_bider_bilinear_space)
import biderlie.algebras as algebras_module
import biderlie.verify as verify
from biderlie.cli import main
from biderlie.algebras import failing_stacks
from biderlie.derivations import derivation_rows
from biderlie.linalg import (Matrix, add_product, canonicalize, mat_commutator,
                             solve_homogeneous)

from helpers import bench_inputs, random_rational_vector, spaces_scale_dense
from oracles import (derivation_rows_dense, derivation_rows_reference, derives_reference,
                     forward_elimination_rank,
                     heisenberg_derivation_constraints, is_derivation_reference,
                     left_bider_rows, nullspace_reference, right_bider_rows,
                     sympy_nullspace_dim)

F = Fraction


@pytest.mark.parametrize("n", [2, 3, 4])
def test_abelian_derivations_are_everything(n):
    A = builtin(f"abelian({n})")
    assert derivation_space(A).dim == n * n
    rng = random.Random(n)
    any_matrix = Matrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    assert is_derivation(A, any_matrix)


def test_adjoint_maps_are_derivations(heisenberg):
    for i in range(3):
        assert is_derivation(heisenberg, ad(heisenberg, heisenberg.basis_element(i)))


def test_non_derivation_witness(heisenberg):
    # violates the hand-derived constraint m13 = 0
    bad = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert not heisenberg_derivation_constraints(bad)
    assert not is_derivation(heisenberg, bad)
    assert not derivation_space(heisenberg).contains(bad.to_col_major())


def test_heisenberg_derivation_space(heisenberg):
    space = derivation_space(heisenberg)
    assert space.dim == 6
    # independent oracle: the hand-expanded rule gives m13 = m23 = 0 and
    # m33 = m11 + m22, i.e. three independent constraints on nine unknowns
    for m in derivation_matrices(heisenberg):
        assert heisenberg_derivation_constraints(m)
        assert is_derivation(heisenberg, m)
    constraint_rows = []
    for triple in ((0, 0, 0, 0, 0, 0, 1, 0, 0),      # m13 (col-major index 6)
                   (0, 0, 0, 0, 0, 0, 0, 1, 0),      # m23
                   (-1, 0, 0, 0, -1, 0, 0, 0, 1)):   # m33 - m11 - m22
        constraint_rows.append([F(x) for x in triple])
    assert forward_elimination_rank(constraint_rows) == 3
    assert sympy_nullspace_dim(constraint_rows) == 6
    assert canonicalize(space.vectors, 9) == space  # already canonical


def test_sl2_derivations_are_inner():
    sl2 = builtin("sl2")
    space = derivation_space(sl2)
    assert space.dim == 3
    ads = [ad(sl2, sl2.basis_element(i)).to_col_major() for i in range(3)]
    assert canonicalize(ads, 9) == space


def test_derivation_space_members_pass_predicate():
    for name in ("L2", "L3", "L4", "heisenberg3", "sl2"):
        A = builtin(name)
        assert all(is_derivation(A, m) for m in derivation_matrices(A)), name


def test_commutator_alternates(heisenberg):
    d = derivation_matrices(heisenberg)[0]
    assert commutator(d, d).is_zero()


def test_ad_is_a_homomorphism(heisenberg):
    # ad[x,y] = [ad x, ad y]; e3 is central so ad(e3) = 0
    e1, e2, e3 = (heisenberg.basis_element(i) for i in range(3))
    assert ad(heisenberg, e3).is_zero()
    assert commutator(ad(heisenberg, e1), ad(heisenberg, e2)) == ad(
        heisenberg, bracket(heisenberg, e1, e2))
    rng = random.Random(11)
    for _ in range(10):
        x = random_rational_vector(rng, 3)
        y = random_rational_vector(rng, 3)
        assert commutator(ad(heisenberg, x), ad(heisenberg, y)) == ad(
            heisenberg, bracket(heisenberg, x, y))


def test_commutator_of_random_derivations_is_derivation(heisenberg):
    rng = random.Random(0)
    basis = derivation_matrices(heisenberg)
    space = derivation_space(heisenberg)
    for _ in range(15):
        d1 = Matrix.zeros(3, 3)
        d2 = Matrix.zeros(3, 3)
        for m in basis:
            d1 = d1 + F(rng.randint(-2, 2), rng.randint(1, 2)) * m
            d2 = d2 + F(rng.randint(-2, 2), rng.randint(1, 2)) * m
        c = commutator(d1, d2)
        assert is_derivation(heisenberg, c)
        assert space.contains(c.to_col_major())


def test_commutator_jacobi_exact():
    for name in ("heisenberg3", "sl2", "L4"):
        A = builtin(name)
        ders = derivation_matrices(A)
        for d1 in ders:
            for d2 in ders:
                for d3 in ders:
                    j = (commutator(d1, commutator(d2, d3))
                         + commutator(d2, commutator(d3, d1))
                         + commutator(d3, commutator(d1, d2)))
                    assert j.is_zero()


def test_is_derivation_dimension_mismatch(heisenberg):
    with pytest.raises(ValueError):
        is_derivation(heisenberg, Matrix.identity(2))


def test_lie_declared_without_antisymmetry_uses_every_pair(capsys, tmp_path):
    # declares kind lie but has only [e1,e2] = e2, so [e2,e1] = 0: the
    # (2,1) pair carries constraints of its own and Der is 1-dimensional
    path = tmp_path / "lie122.alg"
    path.write_text("algebra lie122\ndim 2\nkind lie\nc 1 2 2 = 1\n")
    assert main(["der", str(path)]) == 0
    assert "dim Der = 1" in capsys.readouterr().out.splitlines()
    A = parse_algebra(path.read_text())
    assert derivation_space(A).dim == 1
    assert all(is_derivation(A, m) for m in derivation_matrices(A))
    assert right_bider_bilinear_space(A) == solve_homogeneous(right_bider_rows(A), 8)
    assert left_bider_bilinear_space(A) == solve_homogeneous(left_bider_rows(A), 8)


def _derivation_suite_reference(A, ders):
    """The suite's three checks, one `mat_commutator` and `Matrix` sum at a time."""
    space = derivation_space(A)
    closure = all(space.contains(mat_commutator(a, b).to_col_major()) for a in ders for b in ders)
    jacobi = all((mat_commutator(a, mat_commutator(b, c)) + mat_commutator(b, mat_commutator(c, a))
                  + mat_commutator(c, mat_commutator(a, b))).is_zero()
                 for a in ders for b in ders for c in ders)
    return [all(is_derivation_reference(A, d) for d in ders), closure, jacobi]


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L3", "L4", "abelian(3)"])
def test_integer_derivation_suite_matches_fraction_reference(monkeypatch, name):
    # the suite sums commutators in integers over the Der basis scaled once; on the
    # solved basis, and on that basis plus a matrix outside Der (closure then fails;
    # Jacobi holds for any commutators), it must read like the `Fraction` reference
    A = builtin(name)
    n = A.dim
    ders = derivation_matrices(A)
    outside = Matrix([[F(int((r, c) in ((0, n - 1), (n - 1, 0))), 3) for c in range(n)]
                      for r in range(n)])
    for basis in (ders, ders + [outside]):
        monkeypatch.setattr(verify, "derivation_matrices", lambda _A, basis=basis: basis)
        got = [r.status == "pass" for r in verify.derivation_suite(A)]
        assert got == _derivation_suite_reference(A, basis)
    if name != "abelian(3)":
        assert got == [False, False, True]


_ADD_PRODUCT = verify.add_product


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "abelian(2)"])
def test_commutator_jacobi_fails_on_anticommutators(monkeypatch, name):
    # the Jacobi identity holds for any matrix commutator, so only a wrong
    # product, here d c + c d, can show the check failing; the commutators of
    # the closure check come from linalg and stay right
    monkeypatch.setattr(verify, "add_product",
                        lambda out, a, b, width, sign=1: _ADD_PRODUCT(out, a, b, width))
    statuses = {r.identity: r.status for r in verify.derivation_suite(builtin(name))}
    assert statuses == {"basis-satisfies-derivation-rule": "pass",
                        "commutator-closure": "pass", "commutator-jacobi": "fail"}


def _fractional_algebra():
    """A generic 3-dim algebra with constants over 3, 5 and 7 and a 2-dim Der."""
    return Algebra.from_entries("fractional", 3, {
        (0, 1, 2): F(2, 3), (1, 0, 2): F(-2, 3), (0, 2, 2): F(1, 5), (2, 0, 2): F(-1, 5),
        (1, 1, 2): F(3, 7)}, "generic")


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("fractional",))
def test_integer_derivation_rows_are_positive_multiples_of_the_reference(name):
    # the rows come from the product's integer form, so each is d > 0 times the
    # Fraction row of the same pair and coordinate, in the same order; a
    # positive d also keeps the drop of rows equal up to sign unchanged
    A = _fractional_algebra() if name == "fractional" else builtin(name)
    rows, ref = derivation_rows(A), derivation_rows_reference(A)
    assert len(rows) == len(ref)
    assert all(type(x) is int for row in rows for x in row)
    for row, want in zip(rows, ref):
        lead = next(c for c, x in enumerate(want) if x)
        d = F(row[lead]) / want[lead]
        assert d > 0 and all(x == d * y for x, y in zip(row, want))
    if ref:
        assert derivation_space(A) == nullspace_reference(Matrix(ref))
    else:
        assert derivation_space(A).dim == A.dim ** 2


ROW_INPUTS = {name: (lambda name=name: builtin(name)) for name in BUILTIN_NAMES}
ROW_INPUTS.update({
    "abelian(1)": lambda: builtin("abelian(1)"),
    "unit-1": lambda: Algebra.from_entries("unit-1", 1, {(0, 0, 0): F(1, 2)}, "generic"),
    "zero-4": lambda: Algebra.from_entries("zero-4", 4, {}, "generic"),
    # [e1, e2] = e2 stored one way only: rows of pairs (i, j) with [e_i, e_j] = 0
    # that the constants of [e_i, e_q] reach
    "one-sided": lambda: Algebra.from_entries("one-sided", 2, {(0, 1, 1): F(1)}, "generic"),
    "heisenberg5": lambda: bench_inputs().heisenberg(5),
    "heisenberg7": lambda: bench_inputs().heisenberg(7),
    "dense-heisenberg5-seed0": lambda: spaces_scale_dense(0)[0],
    "dense-heisenberg5-seed3": lambda: spaces_scale_dense(3)[0],
    "generic4-seed0": lambda: spaces_scale_dense(0)[1],
    "generic4-seed3": lambda: spaces_scale_dense(3)[1],
    "fractional": _fractional_algebra,
})


@pytest.mark.parametrize("name", ROW_INPUTS)
def test_derivation_rows_from_the_nonzero_constants_equal_the_dense_loop(name):
    # row for row and in order, so the drop of zero rows and of rows equal up
    # to sign, and every canonical basis solved from the rows, stay the same
    A = ROW_INPUTS[name]()
    rows, dense = derivation_rows(A), derivation_rows_dense(A)
    assert rows == dense
    assert all(type(row) is list and all(type(x) is int for x in row) for row in rows)
    if not rows:
        assert derivation_space(A).dim == A.dim ** 2


# --- the stacked scan against the per-block reference --------------------------

def _stack_algebras():
    rng = random.Random("stacks")
    # no abelian algebra: every matrix derives it, so its stacks cannot fail
    out = [builtin(name) for name in ("L2", "L3", "L4", "heisenberg3", "sl2")]
    out.append(Algebra.from_entries("unit-1", 1, {(0, 0, 0): F(1, 2)}, "generic"))
    # mixed denominators in the constants
    out.append(Algebra.from_entries("den-4", 4, {(0, 1, 3): F(2, 3), (1, 0, 3): F(-2, 3),
                                                 (2, 3, 3): F(1, 5), (3, 2, 3): F(-1, 5)}, "lie"))
    out.append(Algebra.from_entries("generic-3", 3, {
        (i, j, k): F(rng.choice((-2, 1, 3)), rng.choice((1, 2, 7)))
        for i in range(3) for j in range(3) for k in range(3) if rng.random() < 0.3}, "generic"))
    return out


def _blocks_for(A, rng, count):
    """count derivations of A with mixed denominators (zero matrices where Der is 0 or by
    chance), and one matrix that is no derivation of A."""
    n = A.dim
    ders = derivation_matrices(A)
    good = [sum((F(rng.choice((-3, 0, 1, 2)), rng.choice((1, 2, 3, 5))) * d for d in ders),
                Matrix.zeros(n, n)) for _ in range(count)]
    good[0] = Matrix.zeros(n, n)
    bad = next(m for m in (Matrix([[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                                   for _ in range(n)]) for _ in range(100))
               if not is_derivation_reference(A, m))
    return good, bad


def _images(n, blocks):
    # the stack of the blocks, each over its own denominator: column p of every block
    return [[x for m in blocks for x in m.ints[p::n]] for p in range(n)]


def _tall(blocks):
    # the same stack as `failing_stacks` reads it: the blocks' row-major entries in turn
    return [x for m in blocks for x in m.ints]


def test_derives_reads_every_basis_pair():
    # [e1, e2] = e1 alone: diag(0, 1) breaks the rule at (e1, e2) and at no other pair,
    # and diag(1, 0) keeps it everywhere
    A = Algebra.from_entries("one-pair", 2, {(0, 1, 0): F(1)}, "generic")
    for diagonal, want in (([0, 1], False), ([1, 0], True)):
        blocks = [Matrix([[diagonal[0], 0], [0, diagonal[1]]])]
        assert (not failing_stacks(A, [_tall(blocks)])) is want
        assert derives_reference(A, _images(2, blocks)) is want


@pytest.mark.parametrize("A", _stack_algebras(), ids=lambda A: A.name)
def test_stacked_scan_matches_the_per_block_reference(A):
    n = A.dim
    rng = random.Random(A.name)
    good, bad = _blocks_for(A, rng, 4)
    assert not failing_stacks(A, [[]]) and derives_reference(A, [[] for _ in range(n)])
    stacks = [good, good[:1], [good[1]], [bad], [bad] + good, good[:2] + [bad] + good[2:],
              good + [bad]]
    for blocks in stacks:
        want = bad not in blocks
        images = _images(n, blocks)
        assert derives_reference(A, images) == want
        assert (not failing_stacks(A, [_tall(blocks)])) == want
        # the same blocks as the coefficient matrices of a right and a left poly map
        terms = {(e,) + (0,) * (n - 1): m for e, m in enumerate(blocks)}
        assert is_right_bider_poly(A, PolyRightMap(n, terms)) == want
        assert is_left_bider_poly(A, PolyLeftMap(n, terms)) == want
    assert is_right_bider_poly(A, PolyRightMap.zero(n))
    assert is_left_bider_poly(A, PolyLeftMap.zero(n))
    # tensors: x -> T(x, e_k) is the k-th map, so T is right and T^t left iff all derive;
    # the non-derivation first, in the middle and last
    for k in sorted({0, n // 2, n - 1}):
        maps = [good[(k + i) % len(good)] for i in range(n)]
        for B in (BilinearTensor.from_column_maps(maps),
                  BilinearTensor.from_column_maps(maps[:k] + [bad] + maps[k + 1:])):
            want = derives_reference(A, _images(n, [B.column_map(j) for j in range(n)]))
            assert want == (B.column_map(k) != bad)
            assert is_right_bider(A, B) == want and is_left_bider(A, B.transpose()) == want
    # random tensors with mixed denominators, which pass or fail on either side
    for _ in range(6):
        B = BilinearTensor.from_entries(n, {(i, j, k): F(rng.randint(-3, 3), rng.choice((1, 2, 7)))
                                            for i in range(n) for j in range(n) for k in range(n)
                                            if rng.random() < 0.2})
        for side, T in (("right", B), ("left", B.transpose())):
            want = derives_reference(A, _images(n, [T.column_map(j) for j in range(n)]))
            assert (is_right_bider if side == "right" else is_left_bider)(A, B) == want


# --- every check of the kind and derivations suites can fail -------------------

_KIND_DER_NAMES = ("heisenberg3", "sl2", "L3")


def _unsigned_add_product(out, a, b, width, sign=1):
    return add_product(out, a, b, width)


def _anticommutator(a, b):
    out = [0] * (a.rows * a.rows)
    add_product(out, a.sparse, b.sparse, a.rows)
    add_product(out, b.sparse, a.sparse, a.rows)
    return Matrix._of(a.rows, a.rows, a.den * b.den, out)


def _with_identity(A):
    return derivation_matrices(A) + [Matrix.identity(A.dim)]


def _jacobi_defect_plus_e1(c, i, j, k):
    out = _JACOBI_DEFECT(c, i, j, k)
    out[0] += 1
    return out


_JACOBI_DEFECT = algebras_module._jacobi_defect
_KIND_DER_FAULTS = {  # the module and name replaced, and what replaces it
    # only derivation_suite's Jacobi sums add a product with sign -1
    "add-product-sign-ignored": (verify, "add_product", _unsigned_add_product),
    "anticommutator": (verify, "mat_commutator", _anticommutator),
    # the identity map is a derivation of no algebra with a nonzero product
    "non-derivation-in-der": (verify, "derivation_matrices", _with_identity),
    "jacobi-defect-offset": (algebras_module, "_jacobi_defect", _jacobi_defect_plus_e1),
}
_PASS = ("pass", None)
_FAIL = ("fail", None)
# kind_suite + derivation_suite, (status, witness) per check, on heisenberg3, sl2 and L3.
# The Jacobi sum of anticommutators, [A,{B,C}] + [B,{C,A}] + [C,{A,B}], vanishes for
# any matrices, so that fault fails closure alone. L3 is declared leibniz-left, so its
# kind check is a Leibniz scan and no Jacobi sum; its Der is 2-dimensional, so every
# triple repeats an index, and unsigned, the terms of [D_i, [D_i, D_k]] and
# [D_i, [D_k, D_i]] still cancel
_KIND_DER_PINNED = {
    None: {name: [_PASS] * 4 for name in _KIND_DER_NAMES},
    "add-product-sign-ignored": {"heisenberg3": [_PASS] * 3 + [_FAIL],
                                 "sl2": [_PASS] * 3 + [_FAIL], "L3": [_PASS] * 4},
    "anticommutator": {name: [_PASS, _PASS, _FAIL, _PASS] for name in _KIND_DER_NAMES},
    "non-derivation-in-der": {name: [_PASS, _FAIL, _PASS, _PASS] for name in _KIND_DER_NAMES},
    "jacobi-defect-offset": {
        name: [("fail", {"identity": "jacobi", "triple": [3, 3, 3], "lhs": "0", "rhs": "e1",
                         "residual": "e1"})] + [_PASS] * 3 for name in ("heisenberg3", "sl2")}
    | {"L3": [_PASS] * 4},
}


@pytest.mark.parametrize("name", _KIND_DER_NAMES)
@pytest.mark.parametrize("fault", _KIND_DER_PINNED)
def test_kind_and_derivation_suites_under_each_fault(monkeypatch, fault, name):
    if fault is not None:
        monkeypatch.setattr(*_KIND_DER_FAULTS[fault])
    A = builtin(name)
    results = verify.kind_suite(A) + verify.derivation_suite(A)
    assert [r.identity for r in results] == [
        f"declared-kind-{A.kind}", "basis-satisfies-derivation-rule", "commutator-closure",
        "commutator-jacobi"]
    assert [(r.status, r.witness) for r in results] == _KIND_DER_PINNED[fault][name]


def test_every_kind_and_derivation_check_fails_under_some_pinned_fault():
    failing = {i for table in _KIND_DER_PINNED.values() for rows in table.values()
               for i, (status, _) in enumerate(rows) if status == "fail"}
    assert failing == {0, 1, 2, 3}
