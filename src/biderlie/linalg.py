"""Exact linear algebra over the rationals.

Dense matrices with `fractions.Fraction` entries, reduced row echelon form,
nullspace bases, and canonical subspace bases. No floating point appears
anywhere in this module; every result is exact.

`rref` is the one elimination, and it is sparse and fraction-free: each
row is scaled once to a primitive integer row {column: entry}, every row
operation is an integer one followed by division by the row's content (cf.
Bareiss, Math. Comp. 22, 1968), and only the echelon form it returns
divides by the pivots. Integer systems (`derivations.derivation_rows`,
the coordinate rows of `solve_over`) reach it through `solve_homogeneous`
without becoming `Fraction`s.

Products, commutators and linear combinations run on integers: each
operand is scaled by its common denominator to sparse integer rows
(`int_scaled`), one loop accumulates into a flat integer list
(`add_product` for products, `combine` for sums sum_i f_i M_i over one
common denominator), and the result becomes `Fraction`s once per entry
(`from_int_flat`). A vector is the one-row case. Callers that combine the
same operands many times scale them once and keep the scaled form.

A subspace is always carried around in canonical form: the nonzero rows of
the reduced row echelon form of any spanning set, coordinates in
lexicographic order, each pivot entry 1 and alone in its column. Two spans
are equal iff their canonical bases compare equal component-wise, which
turns subspace comparison into plain tuple comparison. Each canonical basis
takes one `rref`, by two facts:

- Reversed columns. Read in m's column order, the standard kernel vectors
  of the echelon form of m with its columns reversed each start with a 1
  at a free column that no other one touches: they are the canonical
  nullspace basis.
- Lifting. If R is a canonical basis and X the canonical basis of a set of
  coordinates over R, the vectors sum_u x_u R_u are canonical: each has
  entry x_u at R_u's pivot and is zero before the pivot of its first
  nonzero coordinate. `solve_over` solves a system in coordinates over R
  and lifts its solutions (`SubspaceBasis.member`) for its three callers:
  `intersect`, `biderivations.bider_space` and the symmetric and skew
  parts in `verify.symmetry_suite`. Read backwards, v lies in the span iff
  it is the lift of its own pivot entries, so `intersect(a, b)` solves over
  a for the vectors whose residual against b is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(coords: Iterable) -> Vector:
    """Coerce an iterable of ints / 'p/q' strings / Fractions into an exact vector."""
    return tuple(Fraction(c) for c in coords)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def basis_vector(i: int, n: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in data)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.data: tuple[Vector, ...] = rows
        self.rows: int = len(rows)
        self.cols: int = width

    @classmethod
    def _wrap(cls, data: tuple[Vector, ...]) -> "Matrix":
        # trusted constructor: data is already a rectangular tuple of Fraction tuples
        # (or, for a system on its way to `rref`, of int and Fraction tuples)
        m = object.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0])
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(tuple((_ZERO,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._wrap(tuple(basis_vector(i, n) for i in range(n)))

    @classmethod
    def from_col_major(cls, v: Sequence[Fraction], n: int) -> "Matrix":
        """Rebuild an n x n matrix from its column-major coordinate vector."""
        if len(v) != n * n:
            raise ValueError(f"expected {n * n} coordinates, got {len(v)}")
        return cls._wrap(tuple(tuple(Fraction(v[c * n + r]) for c in range(n)) for r in range(n)))

    def to_col_major(self) -> Vector:
        """Column-major coordinate vector; the unknown order used by the solvers."""
        return tuple(self.data[r][c] for c in range(self.cols) for r in range(self.rows))

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def transpose(self) -> "Matrix":
        return Matrix._wrap(tuple(zip(*self.data)))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.cols} cols vs vector of {len(v)}")
        out = []
        for row in self.data:
            s = _ZERO
            for a, b in zip(row, v):
                if a and b:
                    s += a * b
            out.append(s)
        return tuple(out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix._wrap(tuple(tuple(a + b for a, b in zip(r1, r2))
                                  for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix._wrap(tuple(tuple(a - b for a, b in zip(r1, r2))
                                  for r1, r2 in zip(self.data, other.data)))

    def __neg__(self):
        return Matrix._wrap(tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
            (da, a), (db, b) = int_scaled(self.data), int_scaled(other.data)
            out = [0] * (self.rows * other.cols)
            add_product(out, a, b, other.cols)
            return from_int_flat(out, other.cols, da * db)
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Matrix._wrap(tuple(tuple(f * a for a in row) for row in self.data))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def common_denominator(rows: Iterable[Sequence[Fraction]]) -> int:
    """Least common denominator of every entry of `rows`."""
    den = 1
    for row in rows:
        for x in row:
            d = x.denominator
            if d != 1 and den % d:
                den = den * d // math.gcd(den, d)
    return den


IntRows = list[list[tuple[int, int]]]


def flat_rows(flat: Sequence[int], width: int) -> IntRows:
    """Row-major integer entries as sparse integer rows of (column, entry)."""
    return [[(c, x) for c, x in enumerate(flat[r:r + width]) if x]
            for r in range(0, len(flat), width)]


def int_scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[int, IntRows]:
    """Rows (a matrix's `data`, or one vector) as their least common denominator d
    and the sparse integer rows of d * rows."""
    den = common_denominator(rows)
    return den, [[(c, x.numerator * (den // x.denominator)) for c, x in enumerate(row) if x]
                 for row in rows]


def int_dense(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """Rows as their least common denominator d and the dense integer rows of d * rows."""
    den = common_denominator(rows)
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def combine(coeffs: Sequence[Fraction], scaled: Sequence[tuple[int, IntRows]],
            rows: int, width: int) -> tuple[int, list[int]]:
    """sum_i coeffs[i] * (r_i / d_i) for scaled[i] = (d_i, r_i), in integers.

    The r_i are sparse integer rows of a rows x width matrix. Returns
    (den, out): den is the least common multiple of the
    coeffs[i].denominator * d_i, out the row-major entries of den times the
    sum. Zero coefficients are skipped; `coeffs` may hold ints.
    """
    den = 1
    for f, (d, _) in zip(coeffs, scaled):
        if f:
            d *= f.denominator
            if den % d:
                den = den * d // math.gcd(den, d)
    out = [0] * (rows * width)
    for f, (d, r) in zip(coeffs, scaled):
        if f:
            k = f.numerator * (den // (f.denominator * d))
            for i, row in enumerate(r):
                base = i * width
                for c, x in row:
                    out[base + c] += k * x
    return den, out


def combination(coeffs: Sequence[Fraction], scaled: Sequence[tuple[int, IntRows]],
                rows: int, width: int) -> Matrix:
    """sum_i coeffs[i] * scaled[i] (see `combine`) as a rows x width matrix."""
    den, out = combine(coeffs, scaled, rows, width)
    return from_int_flat(out, width, den)


def add_product(out: list[int], a: IntRows, b: IntRows, width: int, sign: int = 1) -> None:
    """out += sign * (a b), with out the row-major entries of a rows(a) x width matrix."""
    for r, arow in enumerate(a):
        base = r * width
        for k, v in arow:
            v *= sign
            for c, w in b[k]:
                out[base + c] += v * w


def add_commutator(out: list[int], a: IntRows, b: IntRows, n: int) -> None:
    """out += a b - b a for square n x n integer rows (hot path of the brackets)."""
    add_product(out, a, b, n)
    add_product(out, b, a, n, -1)


def from_int_flat(out: Sequence[int], width: int, den: int) -> Matrix:
    """The matrix with row-major entries out / den."""
    if den == 1:
        vals = [Fraction(p) if p else _ZERO for p in out]
    else:
        vals = [Fraction(p, den) if p else _ZERO for p in out]
    return Matrix._wrap(tuple([tuple(vals[r:r + width]) for r in range(0, len(vals), width)]))


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    """a b - b a: the one-pair case of the bracket kernel."""
    if (a.rows, a.cols) != (b.rows, b.cols) or a.rows != a.cols:
        raise ValueError("commutator needs two square matrices of equal size")
    n = a.rows
    (da, ai), (db, bi) = int_scaled(a.data), int_scaled(b.data)
    out = [0] * (n * n)
    add_commutator(out, ai, bi, n)
    return from_int_flat(out, n, da * db)


SparseRow = dict[int, int]


def _primitive(row: SparseRow) -> SparseRow:
    """row divided by its content, the gcd of its entries; an empty row stays empty."""
    g = math.gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _eliminate(row: SparseRow, piv: SparseRow, col: int) -> SparseRow:
    """The primitive part of (p/g) row - (f/g) piv, with p = piv[col], f = row[col] and
    g their gcd: a nonzero multiple of row - (f/p) piv, zero at col."""
    p, f = piv[col], row[col]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    out = {c: a * x for c, x in row.items()}
    for c, x in piv.items():
        v = out.get(c, 0) - b * x
        if v:
            out[c] = v
        else:
            del out[c]
    return _primitive(out)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank, by sparse fraction-free elimination.

    Each row is scaled once to a primitive integer row {column: entry}.
    Pivot columns run left to right; among the rows whose first nonzero is
    in the column, the pivot row has the fewest nonzeros, then the smallest
    leading entry, and every other one is eliminated against it
    (`_eliminate`, which divides by the content). Back-substitution clears
    each pivot column above its row, from the last pivot upward. Only the
    output divides by the pivots, so each entry becomes a `Fraction` once.
    """
    ncols = m.cols
    starting: dict[int, list[SparseRow]] = {}       # rows by their first nonzero column
    for data in m.data:
        den = common_denominator((data,))
        row = {c: x.numerator * (den // x.denominator) for c, x in enumerate(data) if x}
        if row:
            starting.setdefault(min(row), []).append(_primitive(row))
    pivots: dict[int, SparseRow] = {}               # pivot column -> its row, left to right
    while starting:
        col = min(starting)
        rows = starting.pop(col)
        piv = min(rows, key=lambda r: (len(r), abs(r[col])))
        for row in rows:
            if row is not piv:
                row = _eliminate(row, piv, col)
                if row:
                    starting.setdefault(min(row), []).append(row)
        pivots[col] = piv
    cols = list(pivots)
    for i in range(len(cols) - 1, 0, -1):
        col = cols[i]
        for above in cols[:i]:
            if col in pivots[above]:
                pivots[above] = _eliminate(pivots[above], pivots[col], col)
    out = []
    for col, row in pivots.items():
        p = row[col]
        dense = [_ZERO] * ncols
        for c, x in row.items():
            dense[c] = Fraction(x, p)
        out.append(tuple(dense))
    out.extend([(_ZERO,) * ncols] * (m.rows - len(pivots)))
    return Matrix._wrap(tuple(out)), len(pivots)


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace given by its canonical (RREF) basis.

    Vectors are rows in reduced row echelon form with strictly increasing
    pivot columns; pivots are 1 and alone in their column. Equality of
    dataclass values is therefore equality of spans.
    """

    ambient_dim: int
    vectors: tuple[Vector, ...]
    _scaled: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def int_form(self) -> list[tuple[int, IntRows]]:
        """Each vector as its least common denominator d and the one sparse integer
        row of d * vector, which starts at the pivot; filled on first use."""
        if self._scaled is None:
            object.__setattr__(self, "_scaled", [int_scaled((v,)) for v in self.vectors])
        return self._scaled

    def member(self, coeffs: Sequence[Fraction]) -> Vector:
        """The combination sum_u coeffs[u] * vectors[u]."""
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coeffs)}")
        den, out = combine(coeffs, self.int_form(), 1, self.ambient_dim)
        return tuple(Fraction(p, den) if p else _ZERO for p in out)

    def contains(self, v: Sequence[Fraction]) -> bool:
        """Exact span membership: v is the member with its pivot entries as coordinates,
        compared in integers as den * v against the combination over den. Entries
        that are neither `Fraction`s nor ints are coerced (`vector`)."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"ambient dimension mismatch: {self.ambient_dim} vs {len(v)}")
        v = tuple(v)
        if not all(type(x) is Fraction or type(x) is int for x in v):
            v = vector(v)
        scaled = self.int_form()
        den, out = combine([v[r[0][0][0]] for _, r in scaled], scaled, 1, self.ambient_dim)
        return all(x.numerator * den == p * x.denominator for x, p in zip(v, out))


def canonicalize(vectors: Iterable[Sequence[Fraction]], ambient_dim: int | None = None) -> SubspaceBasis:
    """Canonical basis of the span of `vectors`.

    Two inputs span the same subspace iff their canonical outputs are
    identical component-wise. Idempotent: canonicalizing a canonical basis
    reproduces it.
    """
    vecs = [vector(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim is required for an empty vector set")
        ambient_dim = len(vecs[0])
    if any(len(v) != ambient_dim for v in vecs):
        raise ValueError("vectors do not share the ambient dimension")
    if not vecs:
        return SubspaceBasis(ambient_dim, ())
    red, rank = rref(Matrix._wrap(tuple(vecs)))
    return SubspaceBasis(ambient_dim, red.data[:rank])


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of {v : m v = 0}, read off the rref of m with its columns reversed."""
    n = m.cols
    red, rank = rref(Matrix._wrap(tuple(row[::-1] for row in m.data)))
    # each echelon row read in m's column order, with its pivot
    rows = [(row[::-1], n - 1 - next(c for c, x in enumerate(row) if x))
            for row in red.data[:rank]]
    vecs = []
    for f in sorted(set(range(n)).difference(p for _, p in rows)):
        v = [_ZERO] * n
        v[f] = _ONE
        for row, p in rows:
            v[p] = -row[f]
        vecs.append(tuple(v))
    return SubspaceBasis(n, tuple(vecs))


def solve_homogeneous(rows: Sequence[Sequence[int | Fraction]], unknowns: int) -> SubspaceBasis:
    """Nullspace of a row list in `unknowns` unknowns; an empty system yields the full space.

    Entries are ints or `Fraction`s and reach `rref` as they are, so an
    integer system stays integer until the echelon form divides by its pivots.
    """
    if any(len(row) != unknowns for row in rows):
        raise ValueError(f"every row of the system needs {unknowns} entries, one per unknown")
    if not rows:
        return SubspaceBasis(unknowns, tuple(basis_vector(i, unknowns)
                                             for i in range(unknowns)))
    return nullspace(Matrix._wrap(tuple(map(tuple, rows))))


def solve_over(space: SubspaceBasis, rows: Iterable[Sequence[int]]) -> SubspaceBasis:
    """The members sum_u x_u space_u whose coordinates x solve `rows`, canonical by
    Lifting. Entry u of a row is its form's value at d_u space_u, row u of
    `space.int_form()`; zero rows are dropped, and each row is multiplied by
    the lcm of the d_u, which keeps it integer."""
    dens = [d for d, _ in space.int_form()]
    lcm = math.lcm(*dens)
    scale = [lcm // d for d in dens]
    coords = solve_homogeneous([[s * k for s, k in zip(row, scale)] for row in rows if any(row)],
                               space.dim)
    return SubspaceBasis(space.ambient_dim, tuple(space.member(x) for x in coords.vectors))


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two canonical subspaces of one ambient space, solved over a:
    v lies in b iff its residual v - b.member(v at b's pivots) is zero, and each
    coordinate of the residuals of a's basis vectors is one row. Both arguments
    must be canonical, as every `SubspaceBasis` is; b's pivots are read off."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    den, brows = int_scaled(b.vectors)
    pivot_of = {row[0][0]: v for v, row in enumerate(brows)}
    residuals = []
    for _, (vec,) in a.int_form():
        res = [0] * a.ambient_dim               # den times the residual of the scaled vector
        for c, x in vec:
            res[c] = den * x
        at_pivots = [[(pivot_of[c], x) for c, x in vec if c in pivot_of]]
        add_product(res, at_pivots, brows, a.ambient_dim, -1)
        residuals.append(res)
    return solve_over(a, zip(*residuals))
