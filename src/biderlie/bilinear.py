"""Bilinear maps B: A x A -> A as rank-3 coefficient tensors.

The layout is t[i][j][k]: the e_k coefficient of B(e_i, e_j), first index =
first argument, shared by every module in the package. An algebra's own
product is one of these tensors (`Algebra.product`, whose table is the
structure constants `A.c`), so evaluation, validation, sparse construction
and the transpose (the opposite product) live here once. Flattened
coordinates use the index (i*n + j)*n + k, which is also the unknown order
of the biderivation solvers.

A tensor is held as one n^2 x n `linalg.Matrix`, whose row i*n + j is
B(e_i, e_j): one denominator and integer entries, in lowest terms. The
table `t` and the integer tables of `int_form` are read off it. Sums,
scalar multiples and transposes are integer `Matrix` operations. The
public constructors coerce and check every entry once; results built
inside the package go through the trusted `_of`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import Matrix, Vector, check_index, random_below

_HALF = Fraction(1, 2)

IntTable = tuple[tuple[tuple[int, ...], ...], ...]


class BilinearTensor:
    """Immutable bilinear map given by its basis values, the rows of `matrix`."""

    __slots__ = ("dim", "matrix")

    def __init__(self, dim: int, t):
        table = [[tuple(row) for row in plane] for plane in t]
        if len(table) != dim or any(len(p) != dim for p in table) or any(
            len(r) != dim for p in table for r in p
        ):
            raise ValueError(f"a bilinear map on dim {dim} needs a {dim}^3 table")
        self.dim = dim
        self.matrix = Matrix._from_flat(dim * dim, dim, (x for p in table for r in p for x in r))

    @classmethod
    def _of(cls, dim: int, matrix: Matrix) -> "BilinearTensor":
        # trusted constructor: matrix is dim^2 x dim
        B = object.__new__(cls)
        B.dim = dim
        B.matrix = matrix
        return B

    @classmethod
    def zero(cls, dim: int) -> "BilinearTensor":
        return cls._of(dim, Matrix.zeros(dim * dim, dim))

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping[tuple[int, int, int], Fraction]) -> "BilinearTensor":
        """Sparse 0-based (i, j, k) -> coefficient construction."""
        flat: list = [0] * dim ** 3
        for (i, j, k), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"index {(i, j, k)} out of range for dim {dim}")
            flat[(i * dim + j) * dim + k] = v
        return cls._of(dim, Matrix._from_flat(dim * dim, dim, flat))

    @classmethod
    def from_flat(cls, v: Sequence[Fraction], dim: int) -> "BilinearTensor":
        if len(v) != dim ** 3:
            raise ValueError(f"expected {dim ** 3} coordinates, got {len(v)}")
        return cls._of(dim, Matrix._from_flat(dim * dim, dim, v))

    @classmethod
    def from_column_maps(cls, maps: Sequence[Matrix]) -> "BilinearTensor":
        """Inverse of `column_map`: maps[j] is the matrix of x -> B(x, e_j)."""
        n = len(maps)
        cols = [m.transpose() for m in maps]          # row i of cols[j] is B(e_i, e_j)
        den = math.lcm(*[m.den for m in cols])
        ints = [x * (den // m.den) for i in range(n) for m in cols
                for x in m.ints[i * n:(i + 1) * n]]
        return cls._of(n, Matrix._of(n * n, n, den, ints))

    @property
    def t(self) -> tuple[tuple[Vector, ...], ...]:
        """The table t[i][j][k] of `Fraction`s, read off the matrix."""
        n, rows = self.dim, self.matrix.data
        return tuple(rows[i * n:(i + 1) * n] for i in range(n))

    def int_form(self) -> tuple[int, IntTable, IntTable]:
        """(d, c, r): the matrix's denominator d and its integer entries as tables.

        c[i][j] is d B(e_i, e_j) as integers and r[k][a] = c[a][k], the
        images of x -> B(x, e_k); the images of y -> B(e_i, y) are c[i].
        Built on each call, so a scan reads it once.
        """
        n, m = self.dim, self.matrix
        rows = [m.ints[p:p + n] for p in range(0, n ** 3, n)]
        c = tuple(tuple(rows[i * n:(i + 1) * n]) for i in range(n))
        return m.den, c, tuple(tuple(rows[k::n]) for k in range(n))

    def flatten(self) -> Vector:
        return tuple(x for row in self.matrix.data for x in row)

    def column_map(self, j: int) -> Matrix:
        """The matrix of x -> B(x, e_j); its column i is B(e_i, e_j)."""
        n, ints = self.dim, self.matrix.ints
        check_index(j, n)
        return Matrix._of(n, n, self.matrix.den,
                          [ints[(i * n + j) * n + k] for k in range(n) for i in range(n)])

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """B(x, y) by bilinear extension of the basis values: the row x (x) y times the matrix."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError(f"dimension mismatch: tensor dim {n}, got {len(x)} and {len(y)}")
        return (Matrix._from_flat(1, n * n, [a * b for a in x for b in y]) * self.matrix).data[0]

    def transpose(self) -> "BilinearTensor":
        """The map (x, y) -> B(y, x); indices swapped in the first two slots."""
        n, ints = self.dim, self.matrix.ints
        rows = [ints[p:p + n] for p in range(0, n ** 3, n)]     # row i*n + j: B(e_i, e_j)
        swapped = [x for i in range(n) for row in rows[i::n] for x in row]
        return BilinearTensor._of(n, Matrix._of(n * n, n, self.matrix.den, swapped))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self.transpose() == -self

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __add__(self, other):
        if not isinstance(other, BilinearTensor):
            return NotImplemented
        return BilinearTensor._of(self.dim, self.matrix + other.matrix)

    def __sub__(self, other):
        if not isinstance(other, BilinearTensor):
            return NotImplemented
        return BilinearTensor._of(self.dim, self.matrix - other.matrix)

    def __neg__(self):
        return BilinearTensor._of(self.dim, -self.matrix)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BilinearTensor._of(self.dim, other * self.matrix)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BilinearTensor) and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.dim, self.matrix))

    def __repr__(self):
        nz = sum(1 for x in self.matrix.ints if x)
        return f"BilinearTensor(dim={self.dim}, nonzero={nz})"


def symmetrize(B: BilinearTensor) -> BilinearTensor:
    """B + B^t: the symmetric double of B."""
    return B + B.transpose()


def skew_symmetrize(B: BilinearTensor) -> BilinearTensor:
    """B - B^t: the skew-symmetric double of B."""
    return B - B.transpose()


def half_decomposition(B: BilinearTensor) -> tuple[BilinearTensor, BilinearTensor]:
    """Symmetric and skew parts; their sum times 1/2 reproduces B exactly.

    Needs characteristic != 2, which Q provides.
    """
    return _HALF * symmetrize(B), _HALF * skew_symmetrize(B)


def random_tensor(rng, dim: int, span: int = 3) -> BilinearTensor:
    """Small-coefficient random tensor, for seeded property runs."""
    draws = random_below(rng, [2 * span + 1] * dim ** 3)
    return BilinearTensor._of(dim, Matrix._of(dim * dim, dim, 1, [x - span for x in draws]))
