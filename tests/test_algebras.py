import random
from fractions import Fraction

import pytest

from biderlie import (Algebra, bracket, builtin, check_kind, identity_residual, opposite)

from helpers import random_rational_vector

F = Fraction


def test_heisenberg_basis_bracket(heisenberg):
    e1, e2 = heisenberg.basis_element(0), heisenberg.basis_element(1)
    assert bracket(heisenberg, e1, e2) == heisenberg.element((0, 0, 1))
    assert bracket(heisenberg, e2, e1) == heisenberg.element((0, 0, -1))


def test_heisenberg_general_bracket(heisenberg):
    # [x,y] = (x1 y2 - x2 y1) e3
    rng = random.Random(7)
    for _ in range(20):
        x = random_rational_vector(rng, 3)
        y = random_rational_vector(rng, 3)
        expected = (F(0), F(0), x[0] * y[1] - x[1] * y[0])
        assert bracket(heisenberg, x, y) == expected


def test_lie_bracket_alternates_and_antisymmetric():
    rng = random.Random(3)
    for name in ("heisenberg3", "sl2", "L2", "abelian(3)"):
        A = builtin(name)
        for _ in range(10):
            x = random_rational_vector(rng, A.dim)
            y = random_rational_vector(rng, A.dim)
            zero = (F(0),) * A.dim
            assert bracket(A, x, x) == zero
            assert bracket(A, x, y) == tuple(-v for v in bracket(A, y, x))


def test_bracket_dimension_mismatch(heisenberg):
    with pytest.raises(ValueError):
        bracket(heisenberg, (1, 0), (0, 1, 0))


def test_check_kind_l4():
    L4 = builtin("L4")
    assert check_kind(L4).ok                              # declared leibniz-left
    assert check_kind(L4, "leibniz-left").ok
    rep = check_kind(L4, "leibniz-right")
    assert not rep.ok
    assert rep.witness.triple == (1, 1, 1)                # (e2,e2,e2)
    assert rep.witness.residual == (F(1), F(0))           # e1
    assert rep.witness.lhs == (F(0), F(0))
    assert rep.witness.rhs == (F(1), F(0))
    # the classical display also holds at the reported triple
    assert identity_residual(L4, "leibniz-right", (1, 1, 1)) == (F(1), F(0))


@pytest.mark.parametrize("i", [-1, 3, 5])
def test_basis_element_refuses_an_index_outside_the_dimension(i):
    with pytest.raises(ValueError, match="outside 0..2"):
        builtin("heisenberg3").basis_element(i)


@pytest.mark.parametrize("identity", ["jacobi", "leibniz-right", "leibniz-left"])
@pytest.mark.parametrize("triple", [(-1, 0, 1), (0, 3, 1), (0, 1, -2)])
def test_identity_residual_refuses_an_index_outside_the_dimension(identity, triple):
    # a -1 wrapped to the last basis vector and answered a zero residual
    with pytest.raises(ValueError, match="outside 0..2"):
        identity_residual(builtin("heisenberg3"), identity, triple)


def test_check_kind_l3_both_sides():
    L3 = builtin("L3")
    assert check_kind(L3, "leibniz-left").ok
    assert check_kind(L3, "leibniz-right").ok


def test_check_kind_classification_table():
    for name in ("L1", "L2", "L3", "L4"):
        assert check_kind(builtin(name), "leibniz-left").ok, name


def test_check_kind_abelian_lie():
    assert check_kind(builtin("abelian(3)"), "lie").ok


def test_check_kind_generic_never_fails():
    L4 = builtin("L4")
    assert check_kind(L4, "generic").ok


def test_check_kind_lie_catches_non_antisymmetric():
    A = Algebra.from_entries("bad", 2, {(0, 1, 0): F(1)}, "generic")
    rep = check_kind(A, "lie")
    assert not rep.ok
    assert rep.witness.identity == "antisymmetry"


def test_check_kind_lie_catches_jacobi_failure():
    # antisymmetric but [e1,e2]=e1, [e1,e3]=e2 breaks Jacobi
    entries = {(0, 1, 0): F(1), (1, 0, 0): F(-1), (0, 2, 1): F(1), (2, 0, 1): F(-1)}
    A = Algebra.from_entries("bad-jacobi", 3, entries, "generic")
    rep = check_kind(A, "lie")
    assert not rep.ok
    assert rep.witness.identity == "jacobi"


def test_opposite_l4_is_right_leibniz():
    L4 = builtin("L4")
    op = opposite(L4)
    assert op.kind == "leibniz-right"
    assert check_kind(op, "leibniz-right").ok
    assert not check_kind(op, "leibniz-left").ok


def test_opposite_is_involution():
    for name in ("L2", "L3", "L4", "heisenberg3", "sl2"):
        A = builtin(name)
        assert opposite(opposite(A)) == A


def test_opposite_heisenberg_still_lie(heisenberg):
    op = opposite(heisenberg)
    assert op.kind == "lie"
    assert check_kind(op).ok
    for i in range(3):
        for j in range(3):
            assert op.c[i][j] == tuple(-x for x in heisenberg.c[i][j])


def test_builtin_l2_is_lie():
    L2 = builtin("L2")
    assert L2.kind == "lie"
    assert check_kind(L2).ok
    assert bracket(L2, L2.basis_element(0), L2.basis_element(1)) == L2.element((0, 1))


def test_builtin_abelian_all_zero():
    A = builtin("abelian(3)")
    assert all(x == 0 for p in A.c for r in p for x in r)
    assert A.dim == 3


def test_builtin_sl2_is_lie():
    sl2 = builtin("sl2")
    assert check_kind(sl2, "lie").ok
    e, f, h = sl2.basis_element(0), sl2.basis_element(1), sl2.basis_element(2)
    assert bracket(sl2, h, e) == sl2.element((2, 0, 0))
    assert bracket(sl2, h, f) == sl2.element((0, -2, 0))
    assert bracket(sl2, e, f) == sl2.element((0, 0, 1))


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin("e8")
    with pytest.raises(ValueError):
        builtin("abelian(0)")


def test_structural_equality_ignores_name(heisenberg):
    clone = Algebra("other-label", 3, heisenberg.c, "lie")
    assert clone == heisenberg


def test_bad_constructor_input():
    with pytest.raises(ValueError):
        Algebra("x", 2, [[[0, 0]]], "lie")
    with pytest.raises(ValueError):
        Algebra.from_entries("x", 2, {(2, 0, 0): F(1)}, "lie")
    with pytest.raises(ValueError):
        Algebra.from_entries("x", 2, {}, "weird-kind")
