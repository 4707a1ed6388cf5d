"""Biderivation predicates and solution spaces for bilinear tensors.

A bilinear map is a right biderivation when B([x,y],z) = [x,B(y,z)] +
[B(x,z),y] holds, a left biderivation when B(x,[y,z]) = [B(x,y),z] +
[y,B(x,z)] holds, and a biderivation when both do. B is right iff every
x -> B(x, e_j) is a derivation, and left iff every y -> B(e_i, y) is one,
i.e. iff B^t is right, so every space is solved through `Der`, and the
predicates, residuals and witnesses ask `algebras.leibniz_sides` of
x -> B(x, e_k) (of B^t for the left side). Witness scans run in descending
triple order (see `algebras`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .algebras import Algebra, TripleWitness, leibniz_sides, triples_descending
from .bilinear import BilinearTensor
from .derivations import derivation_rows, derivation_space
from .linalg import (Matrix, SubspaceBasis, Vector, canonicalize, intersect,
                     solve_homogeneous, vec_sub)

_ZERO = Fraction(0)


def right_residual(A: Algebra, B: BilinearTensor, i: int, j: int, k: int) -> Vector:
    """Defect (rhs - lhs) of the right condition at basis triple (i, j, k)."""
    lhs, rhs = leibniz_sides(A, [plane[k] for plane in B.t], i, j)
    return vec_sub(rhs, lhs)


def left_residual(A: Algebra, B: BilinearTensor, i: int, j: int, k: int) -> Vector:
    """Defect (rhs - lhs) of the left condition at basis triple (i, j, k)."""
    return right_residual(A, B.transpose(), j, k, i)


def _first_failure(A: Algebra, B: BilinearTensor, identity: str,
                   right_triple: Callable) -> TripleWitness | None:
    """Scan triples in descending order; `right_triple` maps each to the right condition's."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: algebra dim {A.dim}, tensor dim {B.dim}")
    images = tuple(zip(*B.t))    # images[k][p] = B(e_p, e_k): x -> B(x, e_k)
    for triple in triples_descending(A.dim):
        i, j, k = right_triple(triple)
        lhs, rhs = leibniz_sides(A, images[k], i, j)
        if lhs != rhs:
            return TripleWitness(identity, triple, lhs, rhs, vec_sub(rhs, lhs))
    return None


def right_bider_witness(A: Algebra, B: BilinearTensor) -> TripleWitness | None:
    return _first_failure(A, B, "right-biderivation", lambda t: t)


def left_bider_witness(A: Algebra, B: BilinearTensor) -> TripleWitness | None:
    return _first_failure(A, B.transpose(), "left-biderivation",
                          lambda t: (t[1], t[2], t[0]))


def is_right_bider(A: Algebra, B: BilinearTensor) -> bool:
    """True iff the right condition holds on all basis triples."""
    return right_bider_witness(A, B) is None


def is_left_bider(A: Algebra, B: BilinearTensor) -> bool:
    """True iff the left condition holds on all basis triples."""
    return left_bider_witness(A, B) is None


def is_bider(A: Algebra, B: BilinearTensor) -> bool:
    """Biderivation = left and right at once."""
    return is_right_bider(A, B) and is_left_bider(A, B)


def left_bider_bilinear_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the bilinear tensors satisfying the left condition.

    Block i of the flat order is the column-major y -> B(e_i, y), so this is
    the canonical `Der` basis copied into each block: dim(A) * dim Der(A).
    """
    n = A.dim
    ders = derivation_space(A).vectors
    pad = (_ZERO,) * (n * n)
    return SubspaceBasis(n ** 3, tuple(pad * i + d + pad * (n - 1 - i)
                                       for i in range(n) for d in ders))


def right_bider_bilinear_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the bilinear tensors satisfying the right condition.

    The transposes of the left basis; their supports are disjoint, so
    sorted by pivot they are canonical.
    """
    n = A.dim
    transposed = (tuple(v[(j * n + i) * n + k] for i in range(n) for j in range(n)
                        for k in range(n))
                  for v in left_bider_bilinear_space(A).vectors)
    return SubspaceBasis(n ** 3, tuple(sorted(
            transposed, key=lambda v: next(c for c, x in enumerate(v) if x))))


def bider_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the tensors satisfying both conditions at once.

    A right biderivation is T(x, e_j) = sum_t x[j, t] D_t x over the `Der`
    basis D_t. The left condition, `derivation_rows` on every block, is
    solved for the n * dim Der coordinates x, not the n^3 tensor entries.
    """
    n = A.dim
    ders = derivation_space(A).vectors
    m = len(ders)
    der_rows = derivation_rows(A)
    rows = []
    for i in range(n):
        for der_row in der_rows:
            row = [_ZERO] * (n * m)
            for q, w in enumerate(der_row):
                if w:
                    j, k = divmod(q, n)
                    for t, d in enumerate(ders):
                        if d[i * n + k]:
                            row[j * m + t] += w * d[i * n + k]
            if any(row):
                rows.append(row)
    der_maps = [Matrix.from_col_major(d, n) for d in ders]
    members = []
    for x in solve_homogeneous(rows, n * m).vectors:
        # x -> T(x, e_j) is sum_t x[j, t] D_t
        maps = [sum((x[j * m + t] * D for t, D in enumerate(der_maps) if x[j * m + t]),
                    Matrix.zeros(n, n)) for j in range(n)]
        members.append(BilinearTensor.from_column_maps(maps).flatten())
    return canonicalize(members, n ** 3)


def spaces_intersection(A: Algebra) -> SubspaceBasis:
    """Right space meet left space; must coincide with `bider_space`."""
    return intersect(right_bider_bilinear_space(A), left_bider_bilinear_space(A))


def basis_tensors(space: SubspaceBasis, dim: int) -> list[BilinearTensor]:
    """Unpack a canonical tensor-space basis into tensors."""
    return [BilinearTensor.from_flat(v, dim) for v in space.vectors]
