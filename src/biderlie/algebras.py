"""Algebras presented by structure constants.

An algebra here is Q^n with a bilinear product fixed by structure constants:
the product of basis elements is [e_i, e_j] = sum_k c[i][j][k] e_k. The
product is a `BilinearTensor` (`A.product`, whose table is `A.c`), so its
evaluation, validation, transpose (the opposite product) and integer form
are the tensor's. Elements are plain coordinate tuples (tuple of Fraction).
The `kind` flag declares which identity the product is supposed to
satisfy; it is never inferred, only verified by `check_kind`. Dimensions
are capped at `MAX_DIM`, and the monomial degrees of poly map files at
`MAX_DEGREE`.

`leibniz_sides` is the one place the derivation rule D[e_i,e_j] =
[De_i,e_j] + [e_i,De_j] is evaluated. It works in integers: the product's
integer form against images the caller scales, both sides over one
denominator, so a scan compares integer lists and builds `Fraction`s only
for the sides it reports. It evaluates a stack of maps: `failing_stacks`
names the members of the stack that fail, one evaluation per basis pair,
so a sampled check stacks all its samples into one scan. A bilinear
map B is a right (left) biderivation of A when every x -> B(x, e_k)
(every y -> B(e_i, y)) is a derivation: `bider_scan` names the tensors of
a stack that fail, and `bider_witness` scans triples for the first. A
right (left) Leibniz algebra is one whose product is a right (left)
biderivation of itself, so `check_kind` asks that scan of `A.product`.

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
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .bilinear import BilinearTensor
from .linalg import Vector, basis_vector, check_index, vector

KINDS = ("lie", "leibniz-left", "leibniz-right", "generic")

# Largest dimension an input may declare. It bounds allocation, not time:
# constants are a dense n^3 table and the spaces hold n^3-long vectors, so
# an unbounded `dim` line or `abelian(n)` is an unbounded allocation.
MAX_DIM = 16

# Largest total degree of a monomial in a poly map file. Evaluating a map
# raises each coordinate to its exponent, so an unbounded exponent in a
# three-line file (m (99999999999,0) 1 1 = 1) is an unbounded computation.
# Drawn maps have degree at most 3 and brackets add degrees.
MAX_DEGREE = 1000

# the side of the biderivation condition each Leibniz kind puts on the product
_LEIBNIZ_SIDE = {"leibniz-right": "right", "leibniz-left": "left"}


class Algebra:
    """Finite-dimensional algebra over Q given by structure constants.

    `c[i][j][k]` is the e_k coefficient of [e_i, e_j] (0-based): the table
    of the product tensor, given as a nested table or as the tensor itself.
    Constants are stored in full, without antisymmetric compression, so
    Leibniz and generic products fit the same type. Structural equality
    ignores the name, which is only a label, and `_der`, the `Der` basis
    `derivations.derivation_space` keeps on the algebra once solved.
    """

    __slots__ = ("name", "dim", "product", "kind", "_der")

    def __init__(self, name: str, dim: int, c, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
        if dim < 1:
            raise ValueError("dimension must be positive")
        product = c if isinstance(c, BilinearTensor) else BilinearTensor(dim, c)
        if product.dim != dim:
            raise ValueError(f"a product on dim {dim} needs a {dim}^3 table")
        self.name = name
        self.dim = dim
        self.product = product
        self.kind = kind
        self._der = None

    @classmethod
    def from_entries(cls, name: str, dim: int, entries: Mapping[tuple[int, int, int], Fraction],
                     kind: str) -> "Algebra":
        """Build from sparse 0-based (i, j, k) -> coefficient entries."""
        return cls(name, dim, BilinearTensor.from_entries(dim, entries), kind)

    @property
    def c(self) -> tuple[tuple[Vector, ...], ...]:
        """The structure constants, the product tensor's table."""
        return self.product.t

    def element(self, coords: Iterable) -> Vector:
        v = vector(coords)
        if len(v) != self.dim:
            raise ValueError(f"element has {len(v)} coordinates, algebra has dim {self.dim}")
        return v

    def basis_element(self, i: int) -> Vector:
        return basis_vector(i, self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.dim == other.dim
            and self.kind == other.kind
            and self.product == other.product
        )

    def __hash__(self):
        return hash((self.dim, self.kind, self.product))

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim}, kind={self.kind!r})"


def bracket(A: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Product [x, y], evaluated bilinearly through the structure constants."""
    return A.product.evaluate(x, y)


@dataclass(frozen=True)
class TripleWitness:
    """First failing instantiation of an identity on basis elements.

    `lhs` and `rhs` are the two sides of the identity as displayed in its
    definition; `residual` is rhs - lhs (for one-sided identities such as
    Jacobi the whole defect lands in `residual` and lhs is zero), except for
    antisymmetry, c_ij = -c_ji, whose `residual` is lhs - rhs = c_ij + c_ji.
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


def leibniz_sides(A: Algebra, images: Sequence[Sequence[int]], i: int,
                  j: int) -> tuple[list[int], list[int]]:
    """D_b[e_i, e_j] and [D_b e_i, e_j] + [e_i, D_b e_j] for a stack of linear maps D_b.

    `images[p]` holds D_b e_p for every block b, n integers each, over a scale
    per block the caller keeps. Both sides come back as integer lists over
    d, the product matrix's denominator, times that scale, so they agree iff
    the lists are equal. Every D_b derives iff they agree at every basis pair.
    Each nonzero structure constant costs one pass over the stack, by strides.
    """
    n = A.dim
    rows = A.product.matrix.sparse       # row a*n + b: d [e_a, e_b]
    lhs = [0] * len(images[i])
    rhs = [0] * len(lhs)
    # D[e_i,e_j] = sum_p c[i][j][p] De_p
    for p, f in rows[i * n + j]:
        lhs = [y + f * x for y, x in zip(lhs, images[p])]
    # [De_i,e_j] = sum_a (De_i)_a [e_a,e_j];  [e_i,De_j] = sum_b (De_j)_b [e_i,e_b]
    for coeffs, at in ((images[i], range(j, n * n, n)), (images[j], range(i * n, i * n + n))):
        for a, r in enumerate(at):
            for l, x in rows[r]:
                rhs[l::n] = [y + x * f for y, f in zip(rhs[l::n], coeffs[a::n])]
    return lhs, rhs


def failing_stacks(A: Algebra, talls: Sequence[Sequence[int]]) -> list[int]:
    """The indices, ascending, of the row-major integer lists in talls, n x n blocks stacked as
    rows over a scale per list, that hold a block not deriving A. One scan: `leibniz_sides`
    evaluates each basis pair once for every block, one pass per nonzero structure constant, and
    its two sides are compared whole and sliced per block only where they differ, skipping the
    blocks of lists already known to fail."""
    n, bad = A.dim, set()
    owner = [t for t, f in enumerate(talls) for _ in range(0, len(f), n * n)]
    images = [list(chain.from_iterable(f[p::n] for f in talls)) for p in range(n)]
    for i in range(n):
        for j in range(n):
            lhs, rhs = leibniz_sides(A, images, i, j)
            if lhs != rhs:
                for b in range(0, len(lhs), n):
                    if owner[b // n] not in bad and lhs[b:b + n] != rhs[b:b + n]:
                        bad.add(owner[b // n])
    return sorted(bad)


def check_side(side: str) -> None:
    """Refuse a side other than "right" or "left", which would otherwise read as "left"."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")


def _check_triple(triple: Sequence[int], n: int) -> None:
    """Refuse anything but 3 basis indices (i, j, k), each in 0..n-1."""
    if len(triple) != 3:
        raise ValueError(f"expected a triple of 3 basis indices (i, j, k), got {len(triple)}")
    for i in triple:
        check_index(i, n)


def bider_scan(A: Algebra, ints: Sequence[int], side: str) -> list[int]:
    """The tensors, ascending, whose (i, j, k)-ordered integer entries follow one another in ints
    and that fail the `side` condition: a `failing_stacks` scan of each as the n blocks of every
    x -> B(x, e_k) (right) or y -> B(e_k, y) (left), whose column p is the image of e_p."""
    check_side(side)
    n = A.dim
    at = [((p * n + k) if side == "right" else (k * n + p)) * n + l
          for k in range(n) for l in range(n) for p in range(n)]
    gather = itemgetter(*at) if n > 1 else tuple    # one index (n = 1) gets a bare int
    return failing_stacks(A, [gather(ints[t:t + n ** 3]) for t in range(0, len(ints), n ** 3)])


def _fractions(v: Sequence[int], den: int) -> Vector:
    """The integer vector v over den, as `Fraction`s."""
    return tuple(Fraction(x, den) for x in v)


def _bider_sides(A: Algebra, B: BilinearTensor, side: str,
                 triples: Iterable[tuple[int, int, int]]):
    """(triple, lhs, rhs) of B's right or left condition at each basis triple, the
    sides as integer lists over the denominator of A's product matrix times B's."""
    _, c, cols = B.int_form()
    for i, j, k in triples:
        # right: B([x,y],z) = [x,B(y,z)] + [B(x,z),y], x -> B(x, e_k) derives at (e_i, e_j);
        # left: B(x,[y,z]) = [B(x,y),z] + [y,B(x,z)], y -> B(e_i, y) derives at (e_j, e_k)
        if side == "right":
            yield (i, j, k), *leibniz_sides(A, cols[k], i, j)
        else:
            yield (i, j, k), *leibniz_sides(A, c[i], j, k)


def bider_defect(A: Algebra, B: BilinearTensor, side: str,
                 triple: tuple[int, int, int]) -> tuple[Vector, Vector, Vector]:
    """lhs, rhs and residual (rhs - lhs) of B's right or left condition at a basis triple."""
    check_side(side)
    _check_triple(triple, A.dim)
    _, lhs, rhs = next(_bider_sides(A, B, side, [triple]))
    den = A.product.matrix.den * B.matrix.den
    return tuple(_fractions(v, den) for v in (lhs, rhs, [y - x for x, y in zip(lhs, rhs)]))


def bider_witness(A: Algebra, B: BilinearTensor, side: str,
                  identity: str) -> TripleWitness | None:
    """First basis triple, in descending order, at which B fails the `side` condition;
    triples are scanned only when the stacked scan fails."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: algebra dim {A.dim}, tensor dim {B.dim}")
    if not bider_scan(A, B.matrix.ints, side):
        return None
    for triple, lhs, rhs in _bider_sides(A, B, side, triples_descending(A.dim)):
        if lhs != rhs:
            return TripleWitness(identity, triple, *bider_defect(A, B, side, triple))
    return None


def _jacobi_defect(c, i: int, j: int, k: int) -> list[int]:
    """d^2 ([[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]), c the product's
    integer table over d."""
    out = [0] * len(c)
    for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
        for p, f in enumerate(c[a][b]):
            if f:
                for l, x in enumerate(c[p][e]):
                    if x:
                        out[l] += f * x
    return out


def triples_descending(n: int):
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            for k in range(n - 1, -1, -1):
                yield (i, j, k)


def identity_residual(A: Algebra, identity: str, triple: tuple[int, int, int]) -> Vector:
    """Residual (rhs - lhs) of a named identity at one basis triple."""
    if identity in _LEIBNIZ_SIDE:
        return bider_defect(A, A.product, _LEIBNIZ_SIDE[identity], triple)[2]
    if identity == "jacobi":
        _check_triple(triple, A.dim)
        d, c, _ = A.product.int_form()
        return _fractions(_jacobi_defect(c, *triple), d * d)
    raise ValueError(f"unknown identity {identity!r}")


def check_kind(A: Algebra, kind: str | None = None) -> KindReport:
    """Verify the identity demanded by `kind` on all basis triples.

    `kind` defaults to the algebra's declared kind. Failure is data, not an
    error: the report carries the first failing triple with both sides. A
    Leibniz kind holds iff the product is a biderivation of A on that side.
    The Lie scans run on the product's integer form and divide only the
    witness they report.
    """
    kind = A.kind if kind is None else kind
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    n = A.dim
    if kind == "generic":
        return KindReport(kind, True)
    if kind in _LEIBNIZ_SIDE:
        w = bider_witness(A, A.product, _LEIBNIZ_SIDE[kind], kind)
        return KindReport(kind, w is None, w)
    d, c, _ = A.product.int_form()
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            defect = [x + y for x, y in zip(c[i][j], c[j][i])]
            if any(defect):
                w = TripleWitness("antisymmetry", (i, j), _fractions(c[i][j], d),
                                  _fractions([-x for x in c[j][i]], d), _fractions(defect, d))
                return KindReport(kind, False, w)
    for (i, j, k) in triples_descending(n):
        defect = _jacobi_defect(c, i, j, k)
        if any(defect):
            w = TripleWitness("jacobi", (i, j, k), _fractions([0] * n, 1),
                              _fractions(defect, d * d), _fractions(defect, d * d))
            return KindReport(kind, False, w)
    return KindReport(kind, True)


def opposite(A: Algebra) -> Algebra:
    """Opposite product {x,y} = [y,x]: the product tensor transposed.

    The left/right Leibniz kinds swap; lie and generic are self-opposite.
    """
    kind = {"leibniz-left": "leibniz-right", "leibniz-right": "leibniz-left"}.get(A.kind, A.kind)
    return Algebra(f"{A.name}-opposite", A.dim, A.product.transpose(), kind)


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
