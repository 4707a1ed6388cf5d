"""Lie brackets on right and left biderivations in polynomial form.

The bracket of two right biderivations composes them in the first argument
with the second frozen:

    rhd(B1, B2)(x, y) = B1(B2(x, y), y) - B2(B1(x, y), y)

which is quadratic in y when B1 and B2 are bilinear. The representation
closed under this bracket stores a map as a finite sum over monomials of
the frozen argument:

    right: B(x, y) = sum_a y^a (M_a x)      left: B(x, y) = sum_a x^a (N_a y)

with multi-indices a and rational coefficient matrices. Under the bracket
the coefficient matrices simply commutate term by term,

    rhd(B1, B2) = sum_{a,b} y^(a+b) (M_a N_b - N_b M_a) x,

so the bracket is exact, closed, and (because monomials are linearly
independent over an infinite field) a map in this form is a right
biderivation iff every coefficient matrix is a derivation.

The arithmetic runs in integers. A map is its raw form: one denominator `den`
and `blocks`, {monomial: its coefficient matrix times den, n * n row-major
integers}, none all zero and all in lowest terms together, so equal maps have
equal forms in any block order. `_PolyMap._of` is the one constructor that
puts a form so; the sorted `monomials` and the `Fraction` matrices (`terms`)
are views. Map files are parsed into, and written from, this form
(`formats`). `_raw_combination` is the one linear combination of raw forms,
for the constructor, +, -, scalar *, the Lie-law samples and laws. The
bracket kernel takes one operand and a whole row of others, each as `_read`
gives it: its blocks as their nonzero entries and sparse rows. A caller
reads each operand once, and nothing is kept on a map. The kernel adds both
halves of every pair commutator, +M_a N_b and -N_b M_a, into one raw integer
list per output monomial a + b over d1 d2. `rhd` and `lhd` share its
one-pair case, made a map by `_of` (a left map carries the terms of its
transposed right map). The transpose suite (one call per pair) and the
Lie-law suites check raw kernel rows by value, and the Lie-law suite checks
all its samples' membership in one Leibniz scan.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from itertools import chain, compress
from typing import Mapping, Sequence

from .algebras import Algebra, check_side, failing_stacks
from .bilinear import BilinearTensor, skew_symmetrize, symmetrize
from .biderivations import (basis_tensors, left_bider_bilinear_space,
                            right_bider_bilinear_space)
from .derivations import derivation_matrices
from .linalg import Matrix, Ratio, Vector, _integers, add_product, basis_vector, random_below
from .report import CheckResult, check, sample_chunks

MultiIndex = tuple[int, ...]
RawTerms = dict[MultiIndex, list[int]]  # the kernel's integers per monomial, not reduced


def monomial_value(alpha: MultiIndex, v: Sequence[Fraction]) -> Fraction:
    """v^alpha = product of v_i ** alpha_i; an int when v holds ints."""
    return math.prod(x ** a for a, x in zip(alpha, v) if a)


def _at_points(terms, points: Sequence[Sequence[Fraction]], table: dict) -> dict[int, list]:
    """sum_a v^a M_a per point v for terms (a, entries of M_a), as {index of v: entries, maybe
    a term's own}; `table` holds each a's nonzero values [(index, v^a)], filled on first read."""
    out: dict[int, list] = {}
    for a, flat in terms:
        if a not in table:
            table[a] = [(k, w) for k, v in enumerate(points) if (w := monomial_value(a, v))]
        for k, w in table[a] if any(flat) else ():
            cur = out.get(k)
            out[k] = ([x + w * y for x, y in zip(cur, flat)] if cur
                      else flat if w == 1 else [w * y for y in flat])
    return out


class _PolyMap:
    """Shared mechanics of the two polynomial map representations.

    `_frozen` is the argument the monomials read: 1 (y) for right maps, 0 (x) for left.
    A map is its raw form: `den` and `blocks`, {monomial: its coefficient matrix times
    den, n * n row-major integers in a list}, none all zero, in lowest terms over all
    blocks; so two maps are equal iff their raw forms are, in any block order.
    `monomials` and `terms` are sorted views of the blocks.
    """

    __slots__ = ("dim", "den", "blocks")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, Matrix]):
        for a, m in terms.items():
            if len(a) != dim or any(type(e) is not int or e < 0 for e in a):
                raise ValueError(f"bad multi-index {a} for dim {dim}")
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"coefficient matrix must be {dim}x{dim}")
        P = self._of(dim, *_raw_combination(
            [1] * len(terms), [(m.den, {tuple(a): m.ints}) for a, m in terms.items()]))
        self.dim, self.den, self.blocks = dim, P.den, P.blocks

    @classmethod
    def _of(cls, dim: int, den: int, blocks: dict[MultiIndex, list[int]]):
        """The map of the raw form (den, blocks), den > 0, monomials valid: the form becomes
        the map's, its all-zero blocks deleted, and it is put in lowest terms by a gcd that
        is read block by block until it is 1 (over no blocks, den is 1)."""
        for a in [a for a, flat in blocks.items() if not any(flat)]:
            del blocks[a]
        g = den
        for flat in blocks.values():
            if g == 1:
                break
            g = math.gcd(g, *flat)
        if g != 1:
            den, blocks = den // g, {a: [x // g for x in flat] for a, flat in blocks.items()}
        P = object.__new__(cls)
        P.dim, P.den, P.blocks = dim, den, blocks
        return P

    @classmethod
    def zero(cls, dim: int):
        return cls._of(dim, 1, {})

    @classmethod
    def single(cls, dim: int, alpha: MultiIndex, m: Matrix):
        return cls(dim, {tuple(alpha): m})

    @property
    def monomials(self) -> tuple[MultiIndex, ...]:
        return tuple(sorted(self.blocks))

    @property
    def terms(self) -> dict[MultiIndex, Matrix]:
        """The coefficient matrix of each monomial, in monomial order."""
        n = self.dim
        return {a: Matrix._of(n, n, self.den, self.blocks[a]) for a in self.monomials}

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        frozen, free = (y, x) if self._frozen else (x, y)
        return self.fixed_arg(frozen).apply(free)

    def fixed_arg(self, v: Sequence[Fraction]) -> Matrix:
        """The linear map in the free argument when the frozen one is v."""
        return self._at([v])[0]

    def _at(self, points: Sequence[Sequence[Fraction]]) -> list[Matrix]:
        """`fixed_arg` at each of the points, from one evaluation of the blocks."""
        n, nn = self.dim, self.dim * self.dim
        vals = _at_points(self.blocks.items(), points, {})
        return [Matrix._of(n, n, d * self.den, xs)
                for d, xs in (_integers(vals.get(k, [0] * nn)) for k in range(len(points)))]

    def is_zero(self) -> bool:
        return not self.blocks

    def degree(self) -> int:
        """Largest total degree in the frozen argument; -1 for the zero map."""
        return max(map(sum, self.blocks), default=-1)

    def support(self) -> set[MultiIndex]:
        return set(self.blocks)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return _linear_combination((1, 1), (self, other))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return _linear_combination((1, -1), (self, other))

    def __neg__(self):
        return _linear_combination((-1,), (self,))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _linear_combination((other,), (self,))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.dim, self.den, self.blocks) == (other.dim, other.den, other.blocks))

    def __hash__(self):
        return hash((type(self).__name__, self.dim, self.den,
                     frozenset((a, tuple(flat)) for a, flat in self.blocks.items())))

    def transpose(self):
        """(x, y) -> B(y, x): the same terms read as a map of the other side."""
        other = PolyLeftMap if self._frozen else PolyRightMap
        return other._of(self.dim, self.den, self.blocks)

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.dim}, terms={len(self.blocks)}, "
                f"degree={self.degree()})")


def _raw_combination(coeffs: Sequence[int | Ratio], forms) -> tuple[int, RawTerms]:
    """sum_i coeffs[i] * forms[i] for raw forms (den, terms), in integers, not reduced: per
    monomial, each form is added by `map`; a factor of 1 multiplies nothing, and a factor
    of 0 is skipped, so its form adds no denominator and no monomial."""
    used = [(f, form) for f, form in zip(coeffs, forms) if f.numerator]
    den = math.lcm(*[f.denominator * d for f, (d, _) in used])
    out: RawTerms = {}
    for f, (d, terms) in used:
        k = f.numerator * (den // (f.denominator * d))
        for g, flat in terms.items():
            scaled = flat if k == 1 else map(k.__mul__, flat)
            acc = out.get(g)
            out[g] = list(scaled) if acc is None else list(map(operator.add, acc, scaled))
    return den, out


def _linear_combination(coeffs: Sequence[Fraction], maps: Sequence[_PolyMap]):
    """sum_i coeffs[i] * maps[i] for maps of one class: one `_raw_combination`."""
    cls, n = type(maps[0]), maps[0].dim
    if any(P.dim != n for P in maps):
        raise ValueError("dimension mismatch")
    return cls._of(n, *_raw_combination(coeffs, [(P.den, P.blocks) for P in maps]))


def _expect(cls, who: str, *maps) -> None:
    """Refuse maps not of class cls, where `who` works on that side only."""
    if not all(isinstance(P, cls) for P in maps):
        many = len(maps) > 1
        raise TypeError(f"{who} expects {('a', 'two')[many]} "
                        f"{('left', 'right')[cls._frozen]} map{'s' * many}")


class PolyRightMap(_PolyMap):
    """B(x, y) = sum_a y^a (M_a x): linear in x, polynomial in y."""

    _frozen = 1


class PolyLeftMap(_PolyMap):
    """B(x, y) = sum_a x^a (N_a y): polynomial in x, linear in y."""

    _frozen = 0


def from_tensor(B: BilinearTensor) -> PolyRightMap:
    """Bilinear map as a right poly map: one degree-1 term per basis column."""
    n = B.dim
    return PolyRightMap(n, {tuple(int(i == j) for i in range(n)): B.column_map(j)
                            for j in range(n)})


def from_tensor_left(B: BilinearTensor) -> PolyLeftMap:
    """Bilinear map as a left poly map: B(x, y) = sum_i x_i N_i y."""
    return from_tensor(B.transpose()).transpose()


def to_tensor(P: PolyRightMap) -> BilinearTensor:
    """Exact inverse of `from_tensor`; defined only for pure degree-1 maps."""
    _expect(PolyRightMap, "to_tensor", P)
    n = P.dim
    maps = [Matrix.zeros(n, n)] * n
    for a, m in P.terms.items():
        if sum(a) != 1:
            raise ValueError(f"term {a} has total degree {sum(a)}, expected 1")
        maps[a.index(1)] = m
    return BilinearTensor.from_column_maps(maps)


def to_tensor_left(P: PolyLeftMap) -> BilinearTensor:
    """Exact inverse of `from_tensor_left` for pure degree-1 maps."""
    _expect(PolyLeftMap, "to_tensor_left", P)
    return to_tensor(P.transpose()).transpose()


def basis_evaluation_tensor(P: PolyRightMap | PolyLeftMap) -> BilinearTensor:
    """The bilinear map agreeing with P on all basis pairs.

    Faithful only for degree-1 maps; for higher degree it is the basis-pair
    shadow of P, which is how the worked counterexample regressions read
    their bracket results.
    """
    n = P.dim
    B = BilinearTensor.from_column_maps(P._at([basis_vector(j, n) for j in range(n)]))
    return B if P._frozen else B.transpose()


def is_right_bider_poly(A: Algebra, P: PolyRightMap) -> bool:
    """Right biderivation test: every coefficient matrix is a derivation.

    Over Q the monomials y^a are linearly independent as functions, so this
    coefficient-wise criterion is equivalent to x -> B(x, y) being a
    derivation for every y. All the blocks are asked in one scan.
    """
    _expect(PolyRightMap, "is_right_bider_poly", P)
    if A.dim != P.dim:
        raise ValueError("dimension mismatch")
    return not failing_stacks(A, list(P.blocks.values()))


def is_left_bider_poly(A: Algebra, P: PolyLeftMap) -> bool:
    """Left maps: P is a left biderivation iff its transpose is a right one."""
    _expect(PolyLeftMap, "is_left_bider_poly", P)
    return is_right_bider_poly(A, P.transpose())


def _read(X) -> tuple[int, list]:
    """How the kernel reads a map or a raw form (den, {a: n x n row-major integers}): the
    denominator and, per block not all zero, a, its nonzero entries (r n, k, v) and its
    sparse rows, both built from the block's nonzero positions alone, in row-major order.
    Nothing is kept: read each operand once."""
    if isinstance(X, _PolyMap):
        X = X.den, X.blocks
    out = []
    for a, flat in X[1].items():
        if nonzero := list(compress(range(len(flat)), flat)):
            n = math.isqrt(len(flat))
            entries, rows = [], [[] for _ in range(n)]
            for p in nonzero:
                r, k = divmod(p, n)
                entries.append((p - k, k, flat[p]))
                rows[r].append((k, flat[p]))
            out.append((a, entries, rows))
    return X[0], out


def _bracket_terms(P1, row: Sequence) -> list[tuple[int, RawTerms]]:
    """For each P2 of row, sum_{a,b} y^(a+b) [M_a, N_b] as d1 d2 and the raw integers of each
    a + b, perhaps all 0: a pair adds M_a N_b and subtracts N_b M_a in one loop each. P1 and
    each P2 are operands as `_read` gives them; the caller reads each once."""
    (d1, ops1), out = P1, []
    nn = len(ops1[0][2]) ** 2 if ops1 else 0
    for d2, ops2 in row:
        acc: RawTerms = {}
        for a, e1, r1 in ops1:
            for b, e2, r2 in ops2:
                flat = acc.setdefault(tuple(map(operator.add, a, b)), [0] * nn)
                for rn, k, v in e1:
                    for c, w in r2[k]:
                        flat[rn + c] += v * w
                for rn, k, v in e2:
                    for c, w in r1[k]:
                        flat[rn + c] -= v * w
        out.append((d1 * d2, acc))
    return out


def _bracket(cls, op: str, B1, B2):
    """The bracket of two maps of class cls: one kernel call, made a map by `_of`."""
    _expect(cls, op, B1, B2)
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    [raw] = _bracket_terms(_read(B1), [_read(B2)])
    return cls._of(B1.dim, *raw)


def rhd(B1: PolyRightMap, B2: PolyRightMap) -> PolyRightMap:
    """Bracket on right maps: compose in the first argument, second frozen."""
    return _bracket(PolyRightMap, "rhd", B1, B2)


def lhd(B1: PolyLeftMap, B2: PolyLeftMap) -> PolyLeftMap:
    """Bracket on left maps: compose in the second argument, first frozen."""
    return _bracket(PolyLeftMap, "lhd", B1, B2)


@functools.cache
def _ratio_table(span: int) -> list[list[Ratio]]:
    """Every ratio p/q of a span, indexed [p + span][q - 1]; spans are small constants."""
    return [[Ratio(p - span, q + 1) for q in range(span)] for p in range(2 * span + 1)]


def random_ratios(rng: random.Random, count: int, span: int = 2) -> list[Ratio]:
    """`count` ratios p/q, p in -span..span and q in 1..span, drawn as randint would, each
    one of the span's shared (immutable) ratios."""
    draws = random_below(rng, (2 * span + 1, span) * count)
    table = _ratio_table(span)
    return [table[p][q] for p, q in zip(draws[::2], draws[1::2])]


def random_ratio(rng: random.Random, span: int = 2) -> Ratio:
    return random_ratios(rng, 1, span)[0]


def random_multi_index(rng: random.Random, n: int, max_degree: int = 2) -> MultiIndex:
    alpha = [0] * n
    [degree] = random_below(rng, (max_degree + 1,))
    for i in random_below(rng, (n,) * degree):
        alpha[i] += 1
    return tuple(alpha)


def _random_map(rng: random.Random, base, derivations: Sequence[Matrix], n: int):
    """A random rational sum of the base maps' raw forms plus up to two terms y^a D, D a
    random rational sum of `derivations`: the raw form of one `_raw_combination`."""
    forms = list(base)
    coeffs = random_ratios(rng, len(forms))
    [extra] = random_below(rng, (3,))
    for _ in range(extra):
        if not derivations:
            break
        a = random_multi_index(rng, n)
        coeffs += random_ratios(rng, len(derivations))
        forms += [(d.den, {a: d.ints}) for d in derivations]
    return _raw_combination(coeffs, forms)


def verify_lie_algebra(A: Algebra, side: str = "right", samples: int = 25,
                       seed: int = 0) -> list[CheckResult]:
    """Property suite: the bracket makes the biderivation side a Lie algebra.

    Draws `samples` triples of random right (or left) biderivations, each a
    rational sum over the computed bilinear basis plus up to two
    random degree <= 2 derivation-coefficient terms, and checks closure,
    bilinearity in both slots, alternativity, and the Jacobi sum, all in
    exact arithmetic. Violations are reported as counterexamples; none are
    expected for any algebra.

    The laws are checked on raw kernel rows: b1 is bracketed with its whole
    row in one call, each law is a raw combination that must vanish, and no
    map is built for a sample or a bracket. Each is read once, where it first
    becomes an operand. Their membership and the closure of the brackets are
    one Leibniz scan each per run of samples (see `verify`).
    """
    check_side(side)
    chunks = sample_chunks(samples, "samples")
    right = side == "right"
    space = (right_bider_bilinear_space if right else left_bider_bilinear_space)(A)
    convert = from_tensor if right else from_tensor_left
    n = A.dim
    base = [(P.den, P.blocks) for P in map(convert, basis_tensors(space, n))]
    ders = derivation_matrices(A)
    rng = random.Random(seed)
    suite = f"bracket-{side}"
    closure_bad = bilin_bad = alt_bad = jacobi_bad = None

    def vanishes(coeffs, forms) -> bool:
        return not any(map(any, _raw_combination(coeffs, forms)[1].values()))

    for chunk in chunks:
        members, products = [], []
        for s in chunk:
            r1, r2, r3 = (_random_map(rng, base, ders, n) for _ in range(3))
            a, b = random_ratios(rng, 2)
            members += [list(chain.from_iterable(r[1].values())) for r in (r1, r2, r3)]
            b1, b2, b3 = map(_read, (r1, r2, r3))
            sum_12, sum_23 = (_read(_raw_combination((a, b), p)) for p in ((r1, r2), (r2, r3)))
            [b31] = _bracket_terms(b3, [b1])
            b23, b2_31 = _bracket_terms(b2, [b3, _read(b31)])
            b11, b12, b13, b1_23, b1_sum = _bracket_terms(b1, [b1, b2, b3, _read(b23), sum_23])
            [b3_12] = _bracket_terms(b3, [_read(b12)])
            [sum_3] = _bracket_terms(sum_12, [b3])
            products.append([x for flat in b12[1].values() for x in flat])
            if bilin_bad is None and not (vanishes((-1, a, b), (sum_3, b13, b23))
                                          and vanishes((-1, a, b), (b1_sum, b12, b13))):
                bilin_bad = s
            if alt_bad is None and not vanishes((1,), (b11,)):
                alt_bad = s
            if jacobi_bad is None and not vanishes((1, 1, 1), (b1_23, b2_31, b3_12)):
                jacobi_bad = s
        if failing_stacks(A, members):
            raise RuntimeError("sample generator produced a non-biderivation")
        if closure_bad is None and (bad := failing_stacks(A, products)):
            closure_bad = chunk[bad[0]]
    laws = {"closure": closure_bad, "bilinearity": bilin_bad, "alternativity": alt_bad,
            "jacobi": jacobi_bad}
    return [check(suite, law, s is None, {"sample": s, "seed": seed}) for law, s in laws.items()]


def verify_transpose_interplay(A: Algebra) -> list[CheckResult]:
    """Exhaustive transpose/symmetry identities over the canonical right basis.

    For every ordered pair (B1, B2) of canonical bilinear right
    biderivations:

      (a) rhd(B1, B2)(x, y) = lhd(B1^t, B2^t)(y, x), which holds for any
          bilinear maps, so it is also checked on the 2m pairs of doubles
          (S_i, S_i+1) and (S_i, K_i+1), S symmetric, K skew, indices mod m;
      (b) the same swap rhd(B1, B2)(x, y) = lhd(B1, B2)(y, x) when both are
          replaced by their symmetric doubles, or both by their skew doubles;
      (c) rhd(B1, B2)(x, y) = lhd(B2, B1)(y, x) for one symmetric and one
          skew double.

    In (b) and (c) the same tensor is reinterpreted as a left biderivation,
    legitimate because symmetric and skew right biderivations are left
    biderivations. Each side is compared with the composition it stands
    for, from the tensors themselves:

      rhd(B1, B2)(x, y) = B1(B2(x, y), y) - B2(B1(x, y), y).

    The frozen argument runs over every e_j and e_j + e_k (j < k), the free
    one over every e_p at once: with the frozen argument fixed, each tensor
    is the matrix whose column p is its value at e_p, a sum of its column
    maps, and the composition is the commutator of two such matrices. A
    frozen sum makes the cross terms y^(a+b), a != b, of the bracket count.

    Each tensor and double is evaluated at the frozen points once. Row i makes
    five comparisons (main, matched S and K, mixed S and K), each one kernel
    call that brackets B1 with a whole family: the left maps of B^t read as
    B's right map, so a left row is bracketed apart only where a left family
    reads otherwise. A row's commutators at a frozen point are two stacked
    products; values are raw integer lists, cross-multiplied where
    denominators differ, and a witness is the least failing pair. As S^t = S,
    (a) on the doubles compares the two sides that the matched and mixed S
    rows compare at i + 1, and is read from them.
    """
    n, nn = A.dim, A.dim * A.dim
    tensors = basis_tensors(right_bider_bilinear_space(A), n)
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    frozen = basis + [tuple(x + y for x, y in zip(basis[j], basis[k]))
                      for j in range(n) for k in range(j + 1, n)]
    table: dict = {}  # each monomial's values at the frozen points

    def family(ts):
        """Each tensor t of ts evaluated once: its read right map, its denominator d and per
        frozen v the sparse rows of x -> d t(x, v); and the family: those, the ds and per v the
        matrices side by side, per row r its entries (j nn + c, x), all as (j nn + r n, c, x)."""
        each, stack = [], {}
        for j, t in enumerate(ts):
            cols = t.int_form()[2]  # cols[k][a] is column a of the matrix at e_k
            flats = ((basis[k], [c[p] for p in range(n) for c in cols[k]]) for k in range(n))
            at = {}
            for v, flat in _at_points(flats, frozen, table).items():
                rows = at[v] = [[] for _ in range(n)]
                wide_rows, wide_ents = stack.setdefault(v, ([[] for _ in range(n)], []))
                for p, x in enumerate(flat):
                    if x:
                        rows[p // n].append((p % n, x))
                        wide_rows[p // n].append((j * nn + p % n, x))
                        wide_ents.append((j * nn + p - p % n, p % n, x))
            each.append((_read(from_tensor(t)), t.matrix.den, at))
        return each, ([P for P, _, _ in each], [d for _, d, _ in each], stack)

    def mismatches(side, comm, dens, size) -> list[int]:
        """Every j at which the raw side[j] is not slice j of comm over dens[j]."""
        vals: dict = {}
        for j, (_, terms) in enumerate(side):
            for v, flat in _at_points(terms.items(), frozen, table).items():
                if v not in vals:
                    vals[v] = [0] * size
                vals[v][j * nn:(j + 1) * nn] = flat
        keys, zero = vals.keys() | comm.keys(), [0] * size
        if [den for den, _ in side] == dens and all(
                vals.get(v, zero) == comm.get(v, zero) for v in keys):
            return []
        return [j for j, ((den, _), e) in enumerate(zip(side, dens)) if any(
            [x * e for x in vals.get(v, zero)[j * nn:(j + 1) * nn]]
            != [y * den for y in comm.get(v, zero)[j * nn:(j + 1) * nn]] for v in keys)]

    def bad(one, row, left) -> tuple[list[int], list[int]]:
        """The js at which rhd(B1, B2_j), and at which lhd(left[0], left[1][j]), is not the
        composition, for B1 the evaluated tensor one and the B2_j those of the family row."""
        (P1, d1, own), (maps, dens, stack) = one, row
        size, dens = len(maps) * nn, [d1 * d for d in dens]
        comm = {}  # per frozen v, f1 [f_j ...] - [f_j ...] f1
        for v, rows1 in own.items():
            if v in stack:
                wide_rows, wide_ents = stack[v]
                c = comm[v] = [0] * size
                add_product(c, rows1, wide_rows, n)
                for base, t, w in wide_ents:
                    for col, x in rows1[t]:
                        c[base + col] -= w * x
        js = mismatches(_bracket_terms(P1, maps), comm, dens, size)
        return js, (js if left == (P1, maps)
                    else mismatches(_bracket_terms(*left), comm, dens, size))

    m = len(tensors)
    sym, skew = [symmetrize(t) for t in tensors], [skew_symmetrize(t) for t in tensors]
    (R, rights), (S, syms), (K, skews) = (family(ts) for ts in (tensors, sym, skew))
    # a left family that reads as the right family it stands for is that family (S = S^t)
    reads = ([_read(from_tensor_left(t.transpose())) for t in ts] for ts in (tensors, skew))
    lefts_t, skew_lt = (F[0] if L == F[0] else L for L, F in zip(reads, (rights, skews)))
    sym_l = syms[0]
    # row i: B1 = B[i] against a whole family, and the left row lhd(L[i], Ls), the K rows'
    # with K^t = -K. In (c) the left rows are columns: lhd(K_i, S_j) = -lhd(K_i^t, S_j), and
    # minus its composition is K_i's with S_j, so row i checks it for (j, i); likewise (S, K)
    rows = ((R, rights, lefts_t, lefts_t), (S, syms, sym_l, sym_l), (K, skews, skew_lt, skew_lt),
            (S, skews, sym_l, skew_lt), (K, syms, skew_lt, sym_l))
    main, matched, mixed, doubles = [], [], [], []
    for i in range(m):
        tt, ss, kk, sk, ks = (bad(B[i], row, (L[i], Ls)) for B, row, L, Ls in rows)
        main += [(i, j) for js in tt for j in js]
        matched += [(i, j) for js in ss + kk for j in js]
        mixed += [(i, j) for j in sk[0] + ks[0]] + [(j, i) for j in ks[1] + sk[1]]
        # (a) on (S_i, S_i+1) and (S_i, K_i+1), whose brackets mix the terms of monomials
        # where those of the basis maps may all vanish (on L4): the S-rows at i + 1
        doubles += [(i, k) for k, js in enumerate((ss, sk)) if (i + 1) % m in js[0] + js[1]]
    found = [{"basis_pair": list(min(p))} if p else None for p in (main, matched, mixed)]
    if found[0] is None and doubles:
        i, k = min(doubles)
        found[0] = {"basis_pair": [i, (i + 1) % m], "doubles": ("symmetric", "symmetric-skew")[k]}
    return [check("transpose", identity, w is None, w) for identity, w in zip(
        ("bracket-transpose-identity", "matched-symmetry-swap", "mixed-symmetry-swap"), found)]


def counterexample_bracket(A: Algebra, B1: BilinearTensor, B2: BilinearTensor) -> BilinearTensor:
    """Bracket of two bilinear maps, read back on basis pairs.

    The full bracket is quadratic in the frozen argument; this is its
    bilinear shadow, the object the worked counterexample inspects with
    the left/right predicates.
    """
    return basis_evaluation_tensor(rhd(from_tensor(B1), from_tensor(B2)))
