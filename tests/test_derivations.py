import random
from fractions import Fraction

import pytest

from biderlie import (ad, bracket, builtin, commutator, derivation_matrices,
                      derivation_space, is_derivation, left_bider_bilinear_space,
                      parse_algebra, right_bider_bilinear_space)
from biderlie.cli import main
from biderlie.linalg import Matrix, canonicalize, solve_homogeneous

from helpers import random_rational_vector
from oracles import (forward_elimination_rank, heisenberg_derivation_constraints,
                     left_bider_rows, right_bider_rows, sympy_nullspace_dim)

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
