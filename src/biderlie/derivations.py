"""Derivations of a structure-constant algebra.

A derivation is a linear self-map D with D[x,y] = [Dx,y] + [x,Dy]. On
coordinates D acts as an n x n matrix, so the defining rule on all basis pairs
is a homogeneous linear system in the matrix entries; its nullspace is the
derivation algebra. `algebras.failing_stacks` scans stacks of maps on integer
columns, each basis pair once for all of them and one pass per nonzero
structure constant, and names the stacks that fail; `derives` asks that none
does. `is_derivation` is the one-block case, and the poly-map predicates of
`brackets` stack all of a map's coefficient matrices, the columns of its tall
matrix. `derivation_rows` writes the rule out on its own, in integers from the
product's `int_form`, so the predicates check the solver independently.
Unknowns are ordered column-major, rows by basis pair (i, j) in ascending
lexicographic order over all n^2 pairs, whatever the declared kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebras import Algebra, bracket, derives, failing_stacks
from .linalg import Matrix, SubspaceBasis, mat_commutator, solve_homogeneous


def is_derivation(A: Algebra, m: Matrix) -> bool:
    """True iff the derivation rule holds on all basis pairs."""
    if m.rows != A.dim or m.cols != A.dim:
        raise ValueError(f"expected a {A.dim}x{A.dim} matrix, got {m.rows}x{m.cols}")
    return not failing_stacks(A, [m.ints])


def derivation_rows(A: Algebra) -> list[list[int]]:
    """The derivation rule at every basis pair (i, j), one row per output coordinate,
    in integers: d times the rule, with d > 0 the denominator of the product's
    `int_form`, so the rows have the rule's solutions.

    Zero rows and rows equal up to sign to an earlier one are dropped: for
    an antisymmetric product, the rows of the pairs (i, i) and (j > i, i).
    """
    n = A.dim
    _, c, _ = A.product.int_form()
    rows = []
    seen = set()
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + l] += c[i][j][k]         # entry m[l][k]
                for p in range(n):
                    row[i * n + p] -= c[p][j][l]         # entry m[p][i]
                for q in range(n):
                    row[j * n + q] -= c[i][q][l]         # entry m[q][j]
                key = tuple(row)
                if any(key) and key not in seen:
                    seen.add(key)
                    seen.add(tuple(-x for x in key))
                    rows.append(row)
    return rows


def derivation_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the derivation algebra, as column-major matrix vectors:
    solved once per `Algebra` object and kept on it (`A._der`) for every later call."""
    if A._der is None:
        A._der = solve_homogeneous(derivation_rows(A), A.dim * A.dim)
    return A._der


def derivation_matrices(A: Algebra) -> list[Matrix]:
    """The canonical derivation basis, unpacked into matrices."""
    n = A.dim
    return [m.transpose() for m in derivation_space(A).basis.split(n, n)]


def commutator(d1: Matrix, d2: Matrix) -> Matrix:
    """Commutator d1 d2 - d2 d1; derivations are closed under it."""
    return mat_commutator(d1, d2)


def ad(A: Algebra, x: Sequence[Fraction]) -> Matrix:
    """Adjoint map y -> [x, y]; a derivation whenever A is Lie."""
    x = A.element(x)
    cols = [bracket(A, x, A.basis_element(j)) for j in range(A.dim)]
    return Matrix.from_col_major([v for col in cols for v in col], A.dim)
