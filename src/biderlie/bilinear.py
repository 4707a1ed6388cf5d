"""Bilinear maps B: A x A -> A as rank-3 coefficient tensors.

The layout is t[i][j][k]: the e_k coefficient of B(e_i, e_j), first index =
first argument, shared by every module in the package. An algebra's own
product is one of these tensors (`Algebra.product`, whose table is the
structure constants `A.c`), so evaluation, validation, sparse construction
and the transpose (the opposite product) live here once. Flattened
coordinates use the index (i*n + j)*n + k, which is also the unknown order
of the biderivation solvers.

The public constructors coerce and check every entry once; results built
inside the package (sums, scalar multiples, transposes, combinations) are
already `Fraction` tables of the right shape and go through the trusted
`_wrap`. A tensor keeps one integer form, filled on first use
(`int_form`): the entries over their common denominator, read by every
Leibniz-rule scan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import Matrix, Vector, int_dense, vector

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

IntTable = tuple[tuple[tuple[int, ...], ...], ...]


class BilinearTensor:
    """Immutable bilinear map given by its basis values."""

    __slots__ = ("dim", "t", "_ints")

    def __init__(self, dim: int, t):
        table = tuple(tuple(vector(row) for row in plane) for plane in t)
        if len(table) != dim or any(len(p) != dim for p in table) or any(
            len(r) != dim for p in table for r in p
        ):
            raise ValueError(f"a bilinear map on dim {dim} needs a {dim}^3 table")
        self.dim = dim
        self.t = table
        self._ints = None

    @classmethod
    def _wrap(cls, dim: int, t: tuple[tuple[Vector, ...], ...]) -> "BilinearTensor":
        # trusted constructor: t is already a dim^3 tuple table of Fractions
        B = object.__new__(cls)
        B.dim = dim
        B.t = t
        B._ints = None
        return B

    @classmethod
    def zero(cls, dim: int) -> "BilinearTensor":
        row = (_ZERO,) * dim
        return cls._wrap(dim, ((row,) * dim,) * dim)

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping[tuple[int, int, int], Fraction]) -> "BilinearTensor":
        """Sparse 0-based (i, j, k) -> coefficient construction."""
        t = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"index {(i, j, k)} out of range for dim {dim}")
            t[i][j][k] = Fraction(v)
        return cls._wrap(dim, tuple(tuple(tuple(row) for row in plane) for plane in t))

    @classmethod
    def from_flat(cls, v: Sequence[Fraction], dim: int) -> "BilinearTensor":
        if len(v) != dim ** 3:
            raise ValueError(f"expected {dim ** 3} coordinates, got {len(v)}")
        return cls._from_flat_trusted(vector(v), dim)

    @classmethod
    def _from_flat_trusted(cls, v: Sequence[Fraction], dim: int) -> "BilinearTensor":
        # `from_flat` for a flat vector of Fractions built inside the package
        rows = [tuple(v[p:p + dim]) for p in range(0, dim ** 3, dim)]
        return cls._wrap(dim, tuple(tuple(rows[i * dim:(i + 1) * dim]) for i in range(dim)))

    @classmethod
    def from_column_maps(cls, maps: Sequence[Matrix]) -> "BilinearTensor":
        """Inverse of `column_map`: maps[j] is the matrix of x -> B(x, e_j)."""
        return cls._wrap(len(maps), tuple(zip(*(m.transpose().data for m in maps))))

    def int_form(self) -> tuple[int, IntTable, IntTable]:
        """(d, c, r): the entries over their common denominator d, kept once filled.

        c[i][j] is d B(e_i, e_j) as integers and r[k][a] = c[a][k], the
        images of x -> B(x, e_k); the images of y -> B(e_i, y) are c[i].
        """
        if self._ints is None:
            n = self.dim
            den, flat = int_dense([row for plane in self.t for row in plane])
            c = tuple(tuple(tuple(flat[i * n + j]) for j in range(n)) for i in range(n))
            self._ints = (den, c, tuple(tuple(c[a][k] for a in range(n)) for k in range(n)))
        return self._ints

    def entries(self):
        """The nonzero entries ((i, j, k), value), in ascending index order."""
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k, v in enumerate(self.t[i][j]):
                    if v:
                        yield (i, j, k), v

    def flatten(self) -> Vector:
        n = self.dim
        return tuple(self.t[i][j][k] for i in range(n) for j in range(n) for k in range(n))

    def value(self, i: int, j: int) -> Vector:
        """B(e_i, e_j) as a coordinate vector."""
        return self.t[i][j]

    def column_map(self, j: int) -> Matrix:
        """The matrix of x -> B(x, e_j); its column i is B(e_i, e_j)."""
        return Matrix._wrap(tuple(zip(*(plane[j] for plane in self.t))))

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
        return BilinearTensor._wrap(self.dim, tuple(zip(*self.t)))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self.transpose() == -self

    def is_zero(self) -> bool:
        return all(not x for p in self.t for r in p for x in r)

    def _zip_with(self, other, op) -> "BilinearTensor":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return BilinearTensor._wrap(self.dim, tuple(
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(p1, p2))
            for p1, p2 in zip(self.t, other.t)))

    def __add__(self, other):
        if not isinstance(other, BilinearTensor):
            return NotImplemented
        return self._zip_with(other, Fraction.__add__)

    def __sub__(self, other):
        if not isinstance(other, BilinearTensor):
            return NotImplemented
        return self._zip_with(other, Fraction.__sub__)

    def _map(self, op) -> "BilinearTensor":
        return BilinearTensor._wrap(self.dim, tuple(tuple(tuple(map(op, r)) for r in p)
                                                     for p in self.t))

    def __neg__(self):
        return self._map(Fraction.__neg__)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._map(Fraction(other).__mul__)
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
    return BilinearTensor._wrap(dim, tuple(tuple(tuple(Fraction(rng.randint(-span, span))
                                                       for _ in range(dim))
                                                 for _ in range(dim)) for _ in range(dim)))
