"""Derivations of a structure-constant algebra.

A derivation is a linear self-map D with D[x,y] = [Dx,y] + [x,Dy]. On
coordinates D acts as an n x n matrix, so the defining rule on all basis
pairs is a homogeneous linear system in the matrix entries; its nullspace
is the derivation algebra. `is_derivation` asks `algebras.leibniz_sides`;
`derivation_rows` writes the rule out on its own, so the predicate checks
the solver independently. Unknowns are ordered column-major, rows by
basis pair (i, j) in ascending lexicographic order over all n^2 pairs,
whatever the declared kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebras import Algebra, bracket, leibniz_sides
from .linalg import Matrix, SubspaceBasis, mat_commutator, solve_homogeneous

_ZERO = Fraction(0)


def is_derivation(A: Algebra, m: Matrix) -> bool:
    """True iff the derivation rule holds on all basis pairs."""
    if m.rows != A.dim or m.cols != A.dim:
        raise ValueError(f"expected a {A.dim}x{A.dim} matrix, got {m.rows}x{m.cols}")
    images = m.transpose().data
    n = A.dim
    for i in range(n):
        for j in range(n):
            lhs, rhs = leibniz_sides(A, images, i, j)
            if lhs != rhs:
                return False
    return True


def derivation_rows(A: Algebra) -> list[list[Fraction]]:
    """The derivation rule at every basis pair (i, j), one row per output coordinate.

    Zero rows and rows equal up to sign to an earlier one are dropped: for
    an antisymmetric product, the rows of the pairs (i, i) and (j > i, i).
    """
    n = A.dim
    rows = []
    seen = set()
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = [_ZERO] * (n * n)
                for k in range(n):
                    v = A.c[i][j][k]
                    if v:
                        row[k * n + l] += v          # entry m[l][k]
                for p in range(n):
                    v = A.c[p][j][l]
                    if v:
                        row[i * n + p] -= v          # entry m[p][i]
                for q in range(n):
                    v = A.c[i][q][l]
                    if v:
                        row[j * n + q] -= v          # entry m[q][j]
                key = tuple(row)
                if any(key) and key not in seen:
                    seen.add(key)
                    seen.add(tuple(-x for x in key))
                    rows.append(row)
    return rows


def derivation_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the derivation algebra, as column-major matrix vectors."""
    return solve_homogeneous(derivation_rows(A), A.dim * A.dim)


def derivation_matrices(A: Algebra) -> list[Matrix]:
    """The canonical derivation basis, unpacked into matrices."""
    return [Matrix.from_col_major(v, A.dim) for v in derivation_space(A).vectors]


def commutator(d1: Matrix, d2: Matrix) -> Matrix:
    """Commutator d1 d2 - d2 d1; derivations are closed under it."""
    return mat_commutator(d1, d2)


def ad(A: Algebra, x: Sequence[Fraction]) -> Matrix:
    """Adjoint map y -> [x, y]; a derivation whenever A is Lie."""
    x = A.element(x)
    cols = [bracket(A, x, A.basis_element(j)) for j in range(A.dim)]
    return Matrix(tuple(tuple(cols[j][r] for j in range(A.dim)) for r in range(A.dim)))
