"""Algebras presented by structure constants.

An algebra here is Q^n with a bilinear product fixed by structure constants:
the product of basis elements is [e_i, e_j] = sum_k c[i][j][k] e_k. Elements
are plain coordinate tuples (tuple of Fraction). The `kind` flag declares
which identity the product is supposed to satisfy; it is never inferred,
only verified by `check_kind`. Dimensions are capped at `MAX_DIM`.

`leibniz_sides` is the one place the derivation rule D[e_i,e_j] =
[De_i,e_j] + [e_i,De_j] is evaluated. A left (right) Leibniz algebra is one
whose left (right) multiplications are derivations, so the Leibniz kinds
are checked through it, as are derivations and biderivations.

Identity checks run on basis pairs/triples only; bilinearity extends them to
all elements. Checkers scan triples in descending lexicographic order and
report the first violation they meet, so the reported witnesses for the
small classification algebras are the classical ones. On the command
line a builtin name wins over a file of the same name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import Vector, basis_vector, vec_add, vec_is_zero, vec_sub, vector, zero_vector

KINDS = ("lie", "leibniz-left", "leibniz-right", "generic")

# Largest dimension an input may declare, twice the intended scale of 8:
# constants are a dense n^3 table and the spaces hold n^3-long vectors, so
# an unbounded `dim` line or `abelian(n)` is an unbounded allocation.
MAX_DIM = 16

_ZERO = Fraction(0)


class Algebra:
    """Finite-dimensional algebra over Q given by structure constants.

    `c[i][j][k]` is the e_k coefficient of [e_i, e_j] (0-based). Constants
    are stored in full, without antisymmetric compression, so Leibniz and
    generic products fit the same type. Structural equality ignores the
    name, which is only a label.
    """

    __slots__ = ("name", "dim", "c", "kind")

    def __init__(self, name: str, dim: int, c, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
        if dim < 1:
            raise ValueError("dimension must be positive")
        table = tuple(tuple(vector(row) for row in plane) for plane in c)
        if len(table) != dim or any(len(p) != dim for p in table) or any(
            len(r) != dim for p in table for r in p
        ):
            raise ValueError(f"structure constants must form a {dim}^3 table")
        self.name = name
        self.dim = dim
        self.c = table
        self.kind = kind

    @classmethod
    def from_entries(cls, name: str, dim: int, entries: Mapping[tuple[int, int, int], Fraction],
                     kind: str) -> "Algebra":
        """Build from sparse 0-based (i, j, k) -> coefficient entries."""
        c = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"index {(i, j, k)} out of range for dim {dim}")
            c[i][j][k] = Fraction(v)
        return cls(name, dim, c, kind)

    def element(self, coords: Iterable) -> Vector:
        v = vector(coords)
        if len(v) != self.dim:
            raise ValueError(f"element has {len(v)} coordinates, algebra has dim {self.dim}")
        return v

    def basis_element(self, i: int) -> Vector:
        return basis_vector(i, self.dim)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        return self.c[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.dim == other.dim
            and self.kind == other.kind
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.dim, self.kind, self.c))

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim}, kind={self.kind!r})"


def bracket(A: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Product [x, y], evaluated bilinearly through the structure constants."""
    if len(x) != A.dim or len(y) != A.dim:
        raise ValueError(f"dimension mismatch: algebra dim {A.dim}, got {len(x)} and {len(y)}")
    n = A.dim
    out = [_ZERO] * n
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        ci = A.c[i]
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            f = xi * yj
            for k, ck in enumerate(ci[j]):
                if ck:
                    out[k] += f * ck
    return tuple(out)


@dataclass(frozen=True)
class TripleWitness:
    """First failing instantiation of an identity on basis elements.

    `lhs` and `rhs` are the two sides of the identity as displayed in its
    definition; `residual` is rhs - lhs (for one-sided identities such as
    Jacobi the whole defect lands in `residual` and lhs is zero).
    """

    identity: str
    triple: tuple[int, ...]
    lhs: Vector
    rhs: Vector
    residual: Vector


@dataclass(frozen=True)
class KindReport:
    kind: str
    ok: bool
    witness: TripleWitness | None = None


def leibniz_sides(A: Algebra, images: Sequence[Sequence[Fraction]], i: int,
                  j: int) -> tuple[Vector, Vector]:
    """D[e_i, e_j] and [De_i, e_j] + [e_i, De_j] for the linear map D e_p = images[p].

    D is a derivation iff the two sides agree at every basis pair.
    """
    c = A.c
    lhs = [_ZERO] * A.dim
    rhs = [_ZERO] * A.dim
    # D[e_i,e_j] = sum_p c[i][j][p] De_p;  [De_i,e_j] = sum_a (De_i)_a [e_a,e_j];
    # [e_i,De_j] = sum_b (De_j)_b [e_i,e_b]
    for out, coeffs, values in ((lhs, c[i][j], images),
                                (rhs, images[i], [row[j] for row in c]),
                                (rhs, images[j], c[i])):
        for f, v in zip(coeffs, values):
            if f:
                for l, x in enumerate(v):
                    if x:
                        out[l] += f * x
    return tuple(lhs), tuple(rhs)


def _leibniz_kind_sides(A: Algebra, kind: str, i: int, j: int,
                        k: int) -> tuple[Vector, Vector]:
    if kind == "leibniz-left":
        # [x,[y,z]] = [[x,y],z] + [y,[x,z]]: L_{e_i} is a derivation
        return leibniz_sides(A, A.c[i], j, k)
    # [[x,y],z] = [[x,z],y] + [x,[y,z]]: R_{e_k} is a derivation
    return leibniz_sides(A, [row[k] for row in A.c], i, j)


def _jacobi_defect(A: Algebra, i: int, j: int, k: int) -> Vector:
    s = bracket(A, A.c[i][j], A.basis_element(k))
    s = vec_add(s, bracket(A, A.c[j][k], A.basis_element(i)))
    s = vec_add(s, bracket(A, A.c[k][i], A.basis_element(j)))
    return s


def triples_descending(n: int):
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            for k in range(n - 1, -1, -1):
                yield (i, j, k)


def identity_residual(A: Algebra, identity: str, triple: tuple[int, int, int]) -> Vector:
    """Residual (rhs - lhs) of a named identity at one basis triple."""
    i, j, k = triple
    if identity in ("leibniz-left", "leibniz-right"):
        lhs, rhs = _leibniz_kind_sides(A, identity, i, j, k)
        return vec_sub(rhs, lhs)
    if identity == "jacobi":
        return _jacobi_defect(A, i, j, k)
    raise ValueError(f"unknown identity {identity!r}")


def check_kind(A: Algebra, kind: str | None = None) -> KindReport:
    """Verify the identity demanded by `kind` on all basis triples.

    `kind` defaults to the algebra's declared kind. Failure is data, not an
    error: the report carries the first failing triple with both sides.
    """
    kind = A.kind if kind is None else kind
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    n = A.dim
    if kind == "generic":
        return KindReport(kind, True)
    if kind == "lie":
        for i in range(n - 1, -1, -1):
            for j in range(n - 1, -1, -1):
                defect = vec_add(A.c[i][j], A.c[j][i])
                if not vec_is_zero(defect):
                    w = TripleWitness("antisymmetry", (i, j), A.c[i][j],
                                      tuple(-x for x in A.c[j][i]), defect)
                    return KindReport(kind, False, w)
        for (i, j, k) in triples_descending(n):
            defect = _jacobi_defect(A, i, j, k)
            if not vec_is_zero(defect):
                w = TripleWitness("jacobi", (i, j, k), zero_vector(n), defect, defect)
                return KindReport(kind, False, w)
        return KindReport(kind, True)
    for (i, j, k) in triples_descending(n):
        lhs, rhs = _leibniz_kind_sides(A, kind, i, j, k)
        if lhs != rhs:
            w = TripleWitness(kind, (i, j, k), lhs, rhs, vec_sub(rhs, lhs))
            return KindReport(kind, False, w)
    return KindReport(kind, True)


def opposite(A: Algebra) -> Algebra:
    """Opposite product {x,y} = [y,x]: constants transposed in the first two indices.

    The left/right Leibniz kinds swap; lie and generic are self-opposite.
    """
    n = A.dim
    c = [[A.c[j][i] for j in range(n)] for i in range(n)]
    kind = {"leibniz-left": "leibniz-right", "leibniz-right": "leibniz-left"}.get(A.kind, A.kind)
    return Algebra(f"{A.name}-opposite", n, c, kind)


_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")


def builtin(name: str) -> Algebra:
    """Named example algebras.

    Accepted names: abelian(n), L1, L2, L3, L4, heisenberg3, sl2. The
    two-dimensional L1..L4 are the classification representatives of the
    left Leibniz algebras in dimension two; the Lie ones among them (L1
    abelian, L2 with [e1,e2] = e2) are stored antisymmetrically.
    """
    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"abelian(n) needs 1 <= n <= {MAX_DIM}")
        return Algebra.from_entries(name, n, {}, "lie")
    one = Fraction(1)
    if name == "L1":
        return Algebra.from_entries("L1", 2, {}, "lie")
    if name == "L2":
        return Algebra.from_entries("L2", 2, {(0, 1, 1): one, (1, 0, 1): -one}, "lie")
    if name == "L3":
        return Algebra.from_entries("L3", 2, {(1, 1, 0): one}, "leibniz-left")
    if name == "L4":
        return Algebra.from_entries("L4", 2, {(1, 0, 0): one, (1, 1, 0): one}, "leibniz-left")
    if name == "heisenberg3":
        return Algebra.from_entries("heisenberg3", 3, {(0, 1, 2): one, (1, 0, 2): -one}, "lie")
    if name == "sl2":
        # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
        two = Fraction(2)
        entries = {
            (0, 1, 2): one, (1, 0, 2): -one,
            (2, 0, 0): two, (0, 2, 0): -two,
            (2, 1, 1): -two, (1, 2, 1): two,
        }
        return Algebra.from_entries("sl2", 3, entries, "lie")
    raise ValueError(f"unknown builtin algebra {name!r}")


BUILTIN_NAMES = ("abelian(2)", "abelian(3)", "abelian(4)", "L1", "L2", "L3", "L4",
                 "heisenberg3", "sl2")
