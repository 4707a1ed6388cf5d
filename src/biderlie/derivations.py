"""Derivations of a structure-constant algebra.

A derivation is a linear self-map D with D[x,y] = [Dx,y] + [x,Dy]. On
coordinates D acts as an n x n matrix, so the defining rule on all basis pairs
is a homogeneous linear system in the matrix entries; its nullspace is the
derivation algebra. `algebras.failing_stacks` scans stacks of maps on integer
columns, each basis pair once for all of them and one pass per nonzero
structure constant, and names the stacks that fail. `is_derivation` is the
one-block case, and the poly-map predicates of `brackets` stack all of a map's
coefficient matrices, its blocks. `derivation_rows` writes
the rule out on its own, in integers from the nonzero structure constants of
the product's integer form, so the predicates check the solver independently.
Unknowns are ordered column-major, rows by basis pair (i, j) in ascending
lexicographic order over all n^2 pairs, whatever the declared kind.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import neg
from typing import Sequence

from .algebras import Algebra, bracket, failing_stacks
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

    Row (i, j, l) is written from the nonzero structure constants alone,
    indexed once by (i, j), (j, l) and (i, l); a triple that touches none is
    a zero row and is not visited. Zero rows and rows equal up to sign to an
    earlier one are dropped: for an antisymmetric product, the rows of the
    pairs (i, i) and (j > i, i).
    """
    n = A.dim
    ints = A.product.matrix.ints               # d c_ijk at (i*n + j)*n + k
    by_ij: list[list] = [[] for _ in range(n * n)]  # i*n + j: [(k, d c_ijk)]
    by_jl: dict[tuple[int, int], list] = {}    # (j, l): [(p, d c_pjl)]
    by_il: dict[tuple[int, int], list] = {}    # (i, l): [(q, d c_iql)]
    for r in compress(range(n ** 3), ints):
        (a, b), k, x = divmod(r // n, n), r % n, ints[r]
        by_ij[a * n + b].append((k, x))
        by_jl.setdefault((b, k), []).append((a, x))
        by_il.setdefault((a, k), []).append((b, x))
    ls_of_j = [{l for j, l in by_jl if j == b} for b in range(n)]
    ls_of_i = [{l for i, l in by_il if i == a} for a in range(n)]
    first: dict[tuple, list[int]] = {}         # each row up to sign -> its first row
    for i in range(n):
        for j in range(n):
            ij = by_ij[i * n + j]
            for l in range(n) if ij else sorted(ls_of_j[j] | ls_of_i[i]):
                row = [0] * (n * n)
                for k, x in ij:
                    row[k * n + l] += x                  # entry m[l][k]
                for p, x in by_jl.get((j, l), ()):
                    row[i * n + p] -= x                  # entry m[p][i]
                for q, x in by_il.get((i, l), ()):
                    row[j * n + q] -= x                  # entry m[q][j]
                lead = next(filter(None, row), 0)
                if lead:
                    first.setdefault(tuple(row) if lead > 0 else tuple(map(neg, row)), row)
    return list(first.values())


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
