"""Biderivation predicates and solution spaces for bilinear tensors.

A bilinear map is a right biderivation when B([x,y],z) = [x,B(y,z)] +
[B(x,z),y] holds, a left biderivation when B(x,[y,z]) = [B(x,y),z] +
[y,B(x,z)] holds, and a biderivation when both do. B is right iff every
x -> B(x, e_j) is a derivation, and left iff every y -> B(e_i, y) is one,
i.e. iff B^t is right. So the right and left spaces are copies of the
`Der` basis, which `derivation_space` solves once per algebra object: the
right space is Der (x) Q^n, written row by row in canonical order, and the
two-sided space solves the left condition in coordinates over the right
basis. The predicates, residuals and witnesses are `algebras.bider_witness`
and `algebras.bider_defect`, the scan that also decides the Leibniz kinds
(an algebra's product is a biderivation of it); they read the tensor's
integer form and divide only a reported witness back into `Fraction`s.
Witness scans run in descending triple order (see `algebras`).
"""

from __future__ import annotations

from .algebras import Algebra, TripleWitness, bider_defect, bider_witness
from .bilinear import BilinearTensor
from .derivations import derivation_rows, derivation_space
from .linalg import Matrix, SubspaceBasis, Vector, add_product, intersect, solve_over


def right_residual(A: Algebra, B: BilinearTensor, i: int, j: int, k: int) -> Vector:
    """Defect (rhs - lhs) of the right condition at basis triple (i, j, k)."""
    return bider_defect(A, B, "right", (i, j, k))[2]


def left_residual(A: Algebra, B: BilinearTensor, i: int, j: int, k: int) -> Vector:
    """Defect (rhs - lhs) of the left condition at basis triple (i, j, k)."""
    return bider_defect(A, B, "left", (i, j, k))[2]


def right_bider_witness(A: Algebra, B: BilinearTensor) -> TripleWitness | None:
    return bider_witness(A, B, "right", "right-biderivation")


def left_bider_witness(A: Algebra, B: BilinearTensor) -> TripleWitness | None:
    return bider_witness(A, B, "left", "left-biderivation")


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

    Block i of the flat order is the column-major y -> B(e_i, y), so each row
    of the canonical `Der` basis is copied into each block, in one piece.
    """
    n, nn, der = A.dim, A.dim ** 2, derivation_space(A).basis
    m, w = der.rows, n * nn
    ints = [0] * (n * m * w)
    for r in range(n * m):                      # row i * m + d: D_d in block i
        at = r * w + r // m * nn
        ints[at:at + nn] = der.ints[r % m * nn:(r % m + 1) * nn]
    return SubspaceBasis._of(Matrix._of(n * m, w, der.den, ints))


def right_bider_bilinear_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the bilinear tensors satisfying the right condition.

    Der (x) Q^n: the row y_j D is the tensor whose column map x -> B(x, e_j)
    is D and whose other column maps vanish, so entry (i, j, k) holds D's
    column i, written by one strided copy per row k. Its pivot is (i0, j, k0)
    for D's first nonzero, 1 (held as den), at (k0, i0): rows by i0, j, then D.
    """
    n, nn, der = A.dim, A.dim ** 2, derivation_space(A).basis
    m, w, src = der.rows, n * nn, der.ints
    order = sorted((src.index(der.den, d * nn) % nn // n, j, d) for d in range(m) for j in range(n))
    ints = [0] * (n * m * w)
    for r, (_, j, d) in enumerate(order):
        for k in range(n):                      # entries (i, j, k) of row r, each i
            ints[r * w + j * n + k:(r + 1) * w:nn] = src[d * nn + k:(d + 1) * nn:n]
    return SubspaceBasis._of(Matrix._of(n * m, w, der.den, ints))


def bider_space(A: Algebra) -> SubspaceBasis:
    """Canonical basis of the tensors satisfying both conditions at once.

    The left condition, every block i (y -> B(e_i, y)) a derivation, is
    solved for coordinates x over the canonical right basis R: each row of
    `derivation_rows` applied to block i of every R_u, lifted by
    `linalg.solve_over`. Without a row (a zero product) every right tensor is
    a left one, and R is the answer.
    """
    n, nn = A.dim, A.dim ** 2
    right = right_bider_bilinear_space(A)
    rows = derivation_rows(A)
    if not rows:
        return right
    # entry i * nn + c of R_u is entry c of block i, the column-major y -> R_u(e_i, y):
    # row q meets it at column q * n + i of R_u's values, read from R_u's sparse row
    by_col = [[(q * n, r[c]) for q, r in enumerate(rows) if r[c]] for c in range(nn)]
    by_entry = [[(qn + i, x) for qn, x in by_col[c]] for i in range(n) for c in range(nn)]
    w = len(rows) * n
    values = [0] * (right.dim * w)
    add_product(values, right.basis.sparse, by_entry, w)
    return solve_over(right, (values[c::w] for c in range(w)))


def spaces_intersection(A: Algebra) -> SubspaceBasis:
    """Right space meet left space; must coincide with `bider_space`."""
    return intersect(right_bider_bilinear_space(A), left_bider_bilinear_space(A))


def basis_tensors(space: SubspaceBasis, dim: int) -> list[BilinearTensor]:
    """Unpack a canonical tensor-space basis into tensors."""
    return [BilinearTensor._of(dim, m) for m in space.basis.split(dim * dim, dim)]
