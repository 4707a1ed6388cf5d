"""Exact linear algebra over the rationals.

Dense matrices over Q, reduced row echelon form, nullspace bases, and
canonical subspace bases. No floating point appears anywhere in this
module; every result is exact.

A `Matrix` is its integer form: its shape, one positive denominator `den`
and the row-major integer entries `ints` of den * M, always in lowest terms
(gcd(den, *ints) = 1), so equality and hashing compare those values
directly. Its `Fraction` rows (`data`) and its sparse integer rows
(`sparse`, [(column, entry)] per row) are views, each built once on first
read. Sums, products, commutators, transposes and matrix-vector products
run on the integers: `add_product`, the one matrix loop, accumulates a
product of sparse rows into a flat integer list, and the trusted
`Matrix._of` puts a result in lowest terms. A vector is the one-row case,
and a random member of a space is a lift: its drawn coordinates, read as a
row, times the canonical basis. (Poly maps are summed by
`brackets._raw_combination`, monomial by monomial.)

`_echelon` is the one elimination, sparse and fraction-free: it scales each
integer row {column: entry} to its primitive part, divides every integer
row operation by the row's content (cf. Bareiss, Math. Comp. 22, 1968),
inserts the rows one at a time and reads none once every column has a
pivot. `rref` writes its pivot rows out dense, dividing by the pivots only
there. The solvers scale their input to integers one row at a time; an
all-int row, such as one of `derivations.derivation_rows`, is taken as it is.

A subspace is always carried around in canonical form: the nonzero rows of
the reduced row echelon form of any spanning set, coordinates in
lexicographic order, each pivot entry 1 and alone in its column.
`SubspaceBasis` holds them as one dim x ambient `Matrix`, so two spans are
equal iff their canonical basis matrices are. Each canonical basis takes
one elimination, by two facts:

- Reversed columns. Read in the original order, the standard kernel vectors
  of the echelon form of rows with column c written at index n - 1 - c each
  start with a 1 at a free column that no other one touches: they are the
  canonical nullspace basis, read off the sparse pivot rows.
- Lifting. If R is a canonical basis and X the canonical basis of a set of
  coordinates over R, the vectors sum_u x_u R_u are canonical: each has
  entry x_u at R_u's pivot and is zero before the pivot of its first
  nonzero coordinate. `solve_over` solves a system in coordinates over R
  and lifts its solutions, the matrix product X R (with no nonzero row, X
  is the identity and R the answer, taking no elimination), for its three callers:
  `intersect`, `biderivations.bider_space` and the symmetric and skew
  parts in `verify.symmetry_suite`. Read backwards, v lies in the span iff
  its `SubspaceBasis.residual`, v minus the lift of its own pivot entries, is
  zero, and `intersect(a, b)` solves over a for the vectors whose residual
  against b is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]
IntRows = list[list[tuple[int, int]]]
# p/q, q > 0, as drawn, not reduced: `_integers` reads it as it reads a `Fraction`
Ratio = NamedTuple("Ratio", [("numerator", int), ("denominator", int)])

_ZERO = Fraction(0)
_ONE = Fraction(1)


def random_below(rng, widths: Iterable[int]) -> list[int]:
    """rng.randrange(w) for each width w in turn, drawn as CPython's `randrange` draws it
    (getrandbits(w.bit_length()) until below w): the same values and final state. A
    width below 1 is an empty range: ValueError, as `randrange` raises."""
    bits, out = rng.getrandbits, []
    for w in widths:
        r = bits(k := w.bit_length())
        while r >= w:
            if w < 1:       # no draw is below it: checked only on a rejected draw
                raise ValueError(f"empty range for randrange({w})")
            r = bits(k)
        out.append(r)
    return out


def vector(coords: Iterable) -> Vector:
    """Coerce an iterable of ints / 'p/q' strings / Fractions into an exact vector."""
    return tuple(Fraction(c) for c in coords)


def check_index(i: int, n: int) -> None:
    """Refuse a basis index outside 0..n-1, such as a -1 that would wrap."""
    if not 0 <= i < n:
        raise ValueError(f"basis index {i} is outside 0..{n - 1}")


def basis_vector(i: int, n: int) -> Vector:
    check_index(i, n)
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def _integers(entries: Iterable) -> tuple[int, list[int]]:
    """Rationals (anything `Fraction` reads) as their least common denominator d and
    the integers d * x, in lowest terms. All-int input (not bool) is its own integer
    form over d = 1, taken without a pass per entry."""
    xs = list(entries)
    types = set(map(type, xs))
    if types <= {int}:
        return 1, xs
    ratios = xs if types == {Ratio} else [     # a drawn Ratio is its own (p, q) pair
        x if type(x) is Ratio else x.as_integer_ratio() if type(x) is Fraction
        or type(x) is int else Fraction(x).as_integer_ratio() for x in xs]
    den = math.lcm(*{d for _, d in ratios})
    return den, [p * (den // d) for p, d in ratios]


def lowest_terms(den: int, ints: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The integer form of the rationals ints / den, den > 0, in lowest terms: both
    divided by gcd(den, *ints). Two forms hold the same rationals iff these agree."""
    g = math.gcd(den, *ints[:64])       # mostly 1: the rest of a long form is not read
    if g != 1:
        g = math.gcd(g, *ints)
    return (den, tuple(ints)) if g == 1 else (den // g, tuple([x // g for x in ints]))


class Matrix:
    """Immutable dense matrix over the rationals, held as its integer form: `den` > 0
    and the row-major entries `ints` of den * M, in lowest terms."""

    __slots__ = ("rows", "cols", "den", "ints", "_data", "_sparse")

    def __init__(self, data: Iterable[Iterable]):
        rows = [tuple(row) for row in data]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows, self.cols = len(rows), width
        self.den, self.ints = lowest_terms(*_integers(x for row in rows for x in row))
        self._data = self._sparse = None

    @classmethod
    def _of(cls, rows: int, cols: int, den: int, ints: Sequence[int]) -> "Matrix":
        """Trusted constructor: ints are the rows * cols row-major integers of den * M,
        den > 0; the form is put in lowest terms."""
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        m.den, m.ints = lowest_terms(den, ints)
        m._data = m._sparse = None
        return m

    @classmethod
    def _from_flat(cls, rows: int, cols: int, entries: Iterable) -> "Matrix":
        """The rows x cols matrix of row-major rationals, coerced as `Fraction` reads them."""
        return cls._of(rows, cols, *_integers(entries))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, 1, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, 1, [int(r == c) for r in range(n) for c in range(n)])

    @classmethod
    def from_col_major(cls, v: Sequence[Fraction], n: int) -> "Matrix":
        """Rebuild an n x n matrix from its column-major coordinate vector."""
        if len(v) != n * n:
            raise ValueError(f"expected {n * n} coordinates, got {len(v)}")
        return cls._from_flat(n, n, v).transpose()

    @property
    def data(self) -> tuple[Vector, ...]:
        """The entries as rows of `Fraction`s: a view of the integer form, built on
        first read and kept."""
        if self._data is None:
            den, c = self.den, self.cols
            vals = [Fraction(x, den) if x else _ZERO for x in self.ints]
            self._data = tuple(tuple(vals[r * c:(r + 1) * c]) for r in range(self.rows))
        return self._data

    @property
    def sparse(self) -> IntRows:
        """The rows of den * M as sparse integer rows [(column, entry)]: a view built on
        first read and kept. Read it, do not change it."""
        if self._sparse is None:
            c, ints = self.cols, self.ints
            self._sparse = [[(j, x) for j, x in enumerate(ints[r * c:(r + 1) * c]) if x]
                            for r in range(self.rows)]
        return self._sparse

    def split(self, rows: int, cols: int) -> list["Matrix"]:
        """The row-major entries cut into consecutive rows x cols matrices, in order."""
        size = rows * cols
        return [Matrix._of(rows, cols, self.den, self.ints[p:p + size])
                for p in range(0, len(self.ints), size or 1)]

    def to_col_major(self) -> Vector:
        """Column-major coordinate vector; the unknown order used by the solvers."""
        return tuple(x for row in self.transpose().data for x in row)

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def transpose(self) -> "Matrix":
        c, ints = self.cols, self.ints
        return Matrix._of(c, self.rows, self.den, [x for j in range(c) for x in ints[j::c]])

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.cols} cols vs vector of {len(v)}")
        return (self * Matrix._from_flat(self.cols, 1, v)).to_col_major()

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Matrix._of(self.rows, self.cols, den,
                          [a * x + b * y for x, y in zip(self.ints, other.ints)])

    def __sub__(self, other):
        return self + -other if isinstance(other, Matrix) else NotImplemented

    def __neg__(self):
        return Matrix._of(self.rows, self.cols, self.den, [-x for x in self.ints])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
            out = [0] * (self.rows * other.cols)
            add_product(out, self.sparse, other.sparse, other.cols)
            return Matrix._of(self.rows, other.cols, self.den * other.den, out)
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            return Matrix._of(self.rows, self.cols, self.den * q, [p * x for x in self.ints])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.ints))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def add_product(out: list[int], a: IntRows, b: IntRows, width: int, sign: int = 1) -> None:
    """out += sign * (a b), with out the row-major entries of a rows(a) x width matrix."""
    for r, arow in enumerate(a):
        base = r * width
        for k, v in arow:
            v *= sign
            for c, w in b[k]:
                out[base + c] += v * w


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    """a b - b a: the one-pair case of the bracket kernel."""
    if (a.rows, a.cols) != (b.rows, b.cols) or a.rows != a.cols:
        raise ValueError("commutator needs two square matrices of equal size")
    n = a.rows
    out = [0] * (n * n)
    add_product(out, a.sparse, b.sparse, n)
    add_product(out, b.sparse, a.sparse, n, -1)
    return Matrix._of(n, n, a.den * b.den, out)


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


def _echelon(rows: Iterable[SparseRow], ncols: int) -> tuple[int, dict[int, SparseRow]]:
    """The one elimination: reduced echelon form of integer rows {column: entry}.

    Each row in turn, scaled to its primitive part, is eliminated against the
    pivot of its leading column (`_eliminate`) until it vanishes or opens a new
    pivot column; a sparser row, or one as sparse with a smaller leading entry,
    swaps in as the pivot. Once every column has a pivot, no further row is read.
    Back-substitution clears each pivot column above its row, last pivot first.
    Returns the lcm den of the pivots and the pivot rows by increasing column.
    """
    pivots: dict[int, SparseRow] = {}               # pivot column -> its row
    for row in rows:
        if len(pivots) == ncols:
            break
        row = _primitive(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            if (len(row), abs(row[col])) < (len(piv), abs(piv[col])):
                pivots[col], row, piv = row, piv, row
            row = _eliminate(row, piv, col)
    cols = sorted(pivots)
    for i, col in reversed(list(enumerate(cols))):
        for above in cols[:i]:
            if col in pivots[above]:
                pivots[above] = _eliminate(pivots[above], pivots[col], col)
    return math.lcm(*[pivots[col][col] for col in cols]), {col: pivots[col] for col in cols}


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank: `_echelon` of m's integer rows, written dense."""
    n, rows = m.cols, (m.ints[r * m.cols:(r + 1) * m.cols] for r in range(m.rows))
    den, pivots = _echelon((dict(compress(enumerate(row), row)) for row in rows), n)
    out = [0] * (m.rows * n)
    for r, (col, row) in enumerate(pivots.items()):
        k = den // row[col]
        for c, x in row.items():
            out[r * n + c] = k * x
    return Matrix._of(m.rows, n, den, out), len(pivots)


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace given by its canonical (RREF) basis, one dim x ambient `Matrix`.

    The rows are in reduced row echelon form with strictly increasing pivot
    columns; pivots are 1 and alone in their column. Equality of dataclass
    values is therefore equality of spans. `vectors` is the basis as
    `Fraction` rows.
    """

    basis: Matrix

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        vecs = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError(f"every basis vector needs {ambient_dim} coordinates")
        object.__setattr__(self, "basis", Matrix._from_flat(len(vecs), ambient_dim,
                                                            (x for v in vecs for x in v)))

    @classmethod
    def _of(cls, basis: Matrix) -> "SubspaceBasis":
        # trusted constructor: the rows of basis are canonical
        s = object.__new__(cls)
        object.__setattr__(s, "basis", basis)
        return s

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return self.basis.data

    def member(self, coeffs: Sequence[Fraction]) -> Vector:
        """The member sum_u coeffs[u] * vectors[u]: the row coeffs times the basis."""
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coeffs)}")
        return (Matrix._from_flat(1, self.dim, coeffs) * self.basis).data[0]

    def residual(self, m: Matrix) -> Matrix:
        """m minus the lift of its own pivot entries, row by row: row r is zero iff row r
        of m lies in the span, so one product tests a whole stack of vectors."""
        pivots = [row[0][0] for row in self.basis.sparse]
        at_pivots = [m.ints[r * m.cols + p] for r in range(m.rows) for p in pivots]
        return m - Matrix._of(m.rows, self.dim, m.den, at_pivots) * self.basis

    def contains(self, v: Sequence[Fraction]) -> bool:
        """Exact span membership: a zero residual. Entries are read as `Fraction` reads them."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"ambient dimension mismatch: {self.ambient_dim} vs {len(v)}")
        return self.residual(Matrix._from_flat(1, len(v), v)).is_zero()


def canonicalize(vectors: Iterable[Sequence[Fraction]], ambient_dim: int | None = None) -> SubspaceBasis:
    """Canonical basis of the span of `vectors`.

    Two inputs span the same subspace iff their canonical outputs are
    identical component-wise. Idempotent: canonicalizing a canonical basis
    reproduces it.
    """
    vecs = [tuple(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim is required for an empty vector set")
        ambient_dim = len(vecs[0])
    if any(len(v) != ambient_dim for v in vecs):
        raise ValueError("vectors do not share the ambient dimension")
    red, rank = rref(Matrix._from_flat(len(vecs), ambient_dim, (x for v in vecs for x in v)))
    return SubspaceBasis._of(Matrix._of(rank, ambient_dim, red.den, red.ints[:rank * ambient_dim]))


def _kernel(n: int, den: int, pivots: dict[int, SparseRow]) -> SubspaceBasis:
    """Canonical kernel basis of echelon rows whose column f sits at index c = n - 1 - f:
    the vector of a free index c is den at f and, at each pivot, minus the pivot
    row's c scaled to den. den is the lcm of the pivots."""
    free = {c: u * n for u, c in enumerate(c for c in range(n - 1, -1, -1) if c not in pivots)}
    out = [0] * (len(free) * n)
    for c, base in free.items():
        out[base + n - 1 - c] = den
    for col, row in pivots.items():
        k, p = den // row[col], n - 1 - col
        for c, x in row.items():
            if c != col:
                out[free[c] + p] = -k * x
    return SubspaceBasis._of(Matrix._of(len(free), n, den, out))


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of {v : m v = 0}, read off the rref of m with its columns reversed."""
    n = m.cols
    red, rank = rref(Matrix._of(m.rows, n, m.den,
                                [x for r in range(m.rows) for x in m.ints[r * n:(r + 1) * n][::-1]]))
    rows = (red.ints[r * n:(r + 1) * n] for r in range(rank))
    return _kernel(n, red.den, {min(row): row for row in (dict(compress(enumerate(r), r)) for r in rows)})


def solve_homogeneous(rows: Sequence[Sequence[int | Fraction]], unknowns: int) -> SubspaceBasis:
    """Nullspace of a row list in `unknowns` unknowns; an empty system yields the full space.

    Entries are read as `Fraction` reads them, each row scaled to integers on its
    own. Column f is eliminated at index n - 1 - f and the kernel read off by `_kernel`.
    """
    if any(len(row) != unknowns for row in rows):
        raise ValueError(f"every row of the system needs {unknowns} entries, one per unknown")
    if not rows:
        return SubspaceBasis._of(Matrix.identity(unknowns))
    n, reverse = unknowns, range(unknowns - 1, -1, -1)
    return _kernel(n, *_echelon((dict(compress(zip(reverse, r), r)) for _, r in map(_integers, rows)), n))


def solve_over(space: SubspaceBasis, rows: Iterable[Sequence[int]]) -> SubspaceBasis:
    """The members sum_u x_u space_u whose coordinates x solve `rows`, canonical by
    Lifting. Entry u of a row is its form's value at den * space_u, row u of
    `space.basis.ints`; zero rows are dropped, and with no row left the space is its
    own answer."""
    rows = [row for row in rows if any(row)]
    if not rows:
        return space
    coords = solve_homogeneous(rows, space.dim)
    return SubspaceBasis._of(coords.basis * space.basis)


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two canonical subspaces of one ambient space, solved over a:
    v lies in b iff its residual against b is zero, and each coordinate of the
    residuals of a's basis rows is one row. Both arguments must be canonical, as
    every `SubspaceBasis` is; b's pivots are read off."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    m = a.dim
    res = b.residual(a.basis).transpose()      # column u: a_u's residual
    return solve_over(a, [res.ints[c * m:(c + 1) * m] for c in range(a.ambient_dim)])
