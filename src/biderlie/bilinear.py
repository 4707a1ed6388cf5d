"""Bilinear maps B: A x A -> A as rank-3 coefficient tensors.

The layout is t[i][j][k]: the e_k coefficient of B(e_i, e_j), first index =
first argument, shared by every module in the package. Flattened coordinates
use the index (i*n + j)*n + k, which is also the unknown order of the
biderivation solvers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import Matrix, Vector, vector

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class BilinearTensor:
    """Immutable bilinear map given by its basis values."""

    __slots__ = ("dim", "t")

    def __init__(self, dim: int, t):
        table = tuple(tuple(vector(row) for row in plane) for plane in t)
        if len(table) != dim or any(len(p) != dim for p in table) or any(
            len(r) != dim for p in table for r in p
        ):
            raise ValueError(f"tensor must be {dim}^3")
        self.dim = dim
        self.t = table

    @classmethod
    def zero(cls, dim: int) -> "BilinearTensor":
        return cls(dim, [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping[tuple[int, int, int], Fraction]) -> "BilinearTensor":
        """Sparse 0-based (i, j, k) -> coefficient construction."""
        t = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"index {(i, j, k)} out of range for dim {dim}")
            t[i][j][k] = Fraction(v)
        return cls(dim, t)

    @classmethod
    def from_flat(cls, v: Sequence[Fraction], dim: int) -> "BilinearTensor":
        if len(v) != dim ** 3:
            raise ValueError(f"expected {dim ** 3} coordinates, got {len(v)}")
        return cls(dim, [[[Fraction(v[(i * dim + j) * dim + k]) for k in range(dim)]
                          for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_column_maps(cls, maps: Sequence[Matrix]) -> "BilinearTensor":
        """Inverse of `column_map`: maps[j] is the matrix of x -> B(x, e_j)."""
        return cls(len(maps), zip(*(m.transpose().data for m in maps)))

    def flatten(self) -> Vector:
        n = self.dim
        return tuple(self.t[i][j][k] for i in range(n) for j in range(n) for k in range(n))

    def value(self, i: int, j: int) -> Vector:
        """B(e_i, e_j) as a coordinate vector."""
        return self.t[i][j]

    def column_map(self, j: int) -> Matrix:
        """The matrix of x -> B(x, e_j); its column i is B(e_i, e_j)."""
        return Matrix(zip(*(plane[j] for plane in self.t)))

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """B(x, y) by bilinear extension of the basis values."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError(f"dimension mismatch: tensor dim {n}, got {len(x)} and {len(y)}")
        out = [_ZERO] * n
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            ti = self.t[i]
            for j in range(n):
                yj = y[j]
                if not yj:
                    continue
                f = xi * yj
                for k, v in enumerate(ti[j]):
                    if v:
                        out[k] += f * v
        return tuple(out)

    def transpose(self) -> "BilinearTensor":
        """The map (x, y) -> B(y, x); indices swapped in the first two slots."""
        n = self.dim
        return BilinearTensor(n, [[self.t[j][i] for j in range(n)] for i in range(n)])

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self.transpose() == -self

    def is_zero(self) -> bool:
        return all(not x for p in self.t for r in p for x in r)

    def __add__(self, other):
        if not isinstance(other, BilinearTensor):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        return BilinearTensor(n, [[[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(p1, p2)]
                                  for p1, p2 in zip(self.t, other.t)])

    def __sub__(self, other):
        if not isinstance(other, BilinearTensor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BilinearTensor(self.dim, [[[-x for x in r] for r in p] for p in self.t])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return BilinearTensor(self.dim, [[[f * x for x in r] for r in p] for p in self.t])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BilinearTensor) and self.dim == other.dim and self.t == other.t

    def __hash__(self):
        return hash((self.dim, self.t))

    def __repr__(self):
        nz = sum(1 for p in self.t for r in p for x in r if x)
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
    return BilinearTensor(dim, [[[Fraction(rng.randint(-span, span)) for _ in range(dim)]
                                 for _ in range(dim)] for _ in range(dim)])
