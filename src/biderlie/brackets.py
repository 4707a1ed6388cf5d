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

The arithmetic runs in integers. A map is its sorted monomials and one
tall `linalg.Matrix` that stacks their coefficient matrices over one
denominator, in lowest terms, so equal maps have equal forms; map files are
parsed into that form and written from it (`formats`), and the `Fraction`
matrices (`terms`) are a view. The bracket kernel takes one operand and a
whole row of others. It reads each block as its nonzero entries and sparse
rows, built once per map, and adds both halves of every pair commutator,
+M_a N_b and -N_b M_a, into one raw integer list per output monomial a + b
over d1 d2. `rhd`, and `lhd` (a left map carries the terms of its
transposed right map), are its one-pair case put in lowest terms; the
transpose suite compares whole rows without reducing them.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Mapping, Sequence

from .algebras import Algebra
from .bilinear import BilinearTensor, skew_symmetrize, symmetrize
from .biderivations import (basis_tensors, left_bider_bilinear_space,
                            right_bider_bilinear_space)
from .derivations import derivation_matrices, derives
from .linalg import (IntRows, Matrix, Vector, _integers, add_product, basis_vector, combine)
from .report import CheckResult, check

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
    A map is its sorted `monomials` and one tall `Matrix`, whose block of
    `dim` rows i is the coefficient matrix of monomials[i], none all zero.
    The tall matrix holds one denominator across the monomials, in lowest
    terms, which the bracket kernel needs; so two maps are equal iff their
    monomials and tall matrices are. `terms` is a view of the blocks.
    """

    __slots__ = ("dim", "monomials", "tall", "_ops")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, Matrix]):
        for a, m in terms.items():
            if len(a) != dim or any(e < 0 for e in a):
                raise ValueError(f"bad multi-index {a} for dim {dim}")
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"coefficient matrix must be {dim}x{dim}")
        den = math.lcm(*(m.den for m in terms.values()))
        self.dim, self._ops = dim, None
        self.monomials, self.tall = _stacked(dim, den, {
            tuple(a): [x * (den // m.den) for x in m.ints] for a, m in terms.items()})

    @classmethod
    def _of(cls, dim: int, monomials: tuple[MultiIndex, ...], tall: Matrix):
        # trusted constructor: sorted valid monomials, no all-zero block in tall
        P = object.__new__(cls)
        P.dim = dim
        P.monomials = monomials
        P.tall, P._ops = tall, None
        return P

    @classmethod
    def zero(cls, dim: int):
        return cls(dim, {})

    @classmethod
    def single(cls, dim: int, alpha: MultiIndex, m: Matrix):
        return cls(dim, {tuple(alpha): m})

    @property
    def terms(self) -> dict[MultiIndex, Matrix]:
        """The coefficient matrix of each monomial: the blocks of the tall matrix."""
        return dict(zip(self.monomials, self.tall.split(self.dim, self.dim)))

    def _operands(self) -> list[tuple[MultiIndex, list[tuple[int, int, int]], IntRows]]:
        """Per monomial, its block's nonzero entries (r n, k, v) and sparse integer rows over
        the tall matrix's denominator: a view built on first read and kept."""
        if self._ops is None:
            n, rows = self.dim, self.tall.sparse
            self._ops = [(a, [(r * n, k, v) for r in range(n) for k, v in rows[b + r]],
                          rows[b:b + n]) for a, b in zip(self.monomials, range(0, len(rows), n))]
        return self._ops

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
        vals = _at_points(zip(self.monomials, zip(*[iter(self.tall.ints)] * nn)), points, {})
        return [Matrix._of(n, n, d * self.tall.den, xs)
                for d, xs in (_integers(vals.get(k, [0] * nn)) for k in range(len(points)))]

    def is_zero(self) -> bool:
        return not self.monomials

    def degree(self) -> int:
        """Largest total degree in the frozen argument; -1 for the zero map."""
        return max((sum(a) for a in self.monomials), default=-1)

    def support(self) -> set[MultiIndex]:
        return set(self.monomials)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return _linear_combination((1, 1), (self, other))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return _linear_combination((1, -1), (self, other))

    def __neg__(self):
        return type(self)._of(self.dim, self.monomials, -self.tall)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _linear_combination((other,), (self,))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.monomials, self.tall) == (other.monomials, other.tall))

    def __hash__(self):
        return hash((type(self).__name__, self.monomials, self.tall))

    def transpose(self):
        """(x, y) -> B(y, x): the same terms read as a map of the other side."""
        other = PolyLeftMap if self._frozen else PolyRightMap
        return other._of(self.dim, self.monomials, self.tall)

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.dim}, terms={len(self.monomials)}, "
                f"degree={self.degree()})")


def _stacked(n: int, den: int, ints: Mapping[MultiIndex, Sequence[int]]
             ) -> tuple[tuple[MultiIndex, ...], Matrix]:
    """The monomials and tall matrix of the map whose monomial a has the coefficient
    matrix ints[a] / den, n * n row-major integers; all-zero ones are dropped."""
    monomials = tuple(sorted(a for a, flat in ints.items() if any(flat)))
    tall: list[int] = []
    for a in monomials:
        tall += ints[a]
    return monomials, Matrix._of(len(monomials) * n, n, den, tall)


def _linear_combination(coeffs: Sequence[Fraction], maps: Sequence[_PolyMap]):
    """sum_i coeffs[i] * maps[i] for maps of one class, in integers.

    Each map enters `combine` as one tall matrix: its blocks restacked in
    one block per monomial of the union of the supports.
    """
    cls, n = type(maps[0]), maps[0].dim
    if any(P.dim != n for P in maps):
        raise ValueError("dimension mismatch")
    used = [(f, P) for f, P in zip(coeffs, maps) if f]
    block = {a: i for i, a in enumerate(dict.fromkeys(a for _, P in used for a in P.monomials))}
    tall = []
    for _, P in used:
        rows: IntRows = [[]] * (len(block) * n)
        for a, _, r in P._operands():
            i = block[a] * n
            rows[i:i + n] = r
        tall.append((P.tall.den, rows))
    den, flat = combine([f for f, _ in used], tall, len(block) * n, n)
    size = n * n
    return cls._of(n, *_stacked(n, den, {a: flat[i * size:(i + 1) * size]
                                         for a, i in block.items()}))


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
    n = P.dim
    maps = [Matrix.zeros(n, n)] * n
    for a, m in P.terms.items():
        if sum(a) != 1:
            raise ValueError(f"term {a} has total degree {sum(a)}, expected 1")
        maps[a.index(1)] = m
    return BilinearTensor.from_column_maps(maps)


def to_tensor_left(P: PolyLeftMap) -> BilinearTensor:
    """Exact inverse of `from_tensor_left` for pure degree-1 maps."""
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
    derivation for every y. Each matrix is asked through its integer columns,
    which are strided slices of the tall matrix's row-major integer entries.
    """
    if A.dim != P.dim:
        raise ValueError("dimension mismatch")
    n, ints = P.dim, P.tall.ints
    return all(derives(A, [ints[b + p:b + n * n:n] for p in range(n)])
               for b in range(0, len(ints), n * n))


def is_left_bider_poly(A: Algebra, P: PolyLeftMap) -> bool:
    """Left maps: P is a left biderivation iff its transpose is a right one."""
    return is_right_bider_poly(A, P.transpose())


def _bracket_terms(P1: _PolyMap, row: Sequence[_PolyMap]) -> list[tuple[int, RawTerms]]:
    """For each P2 of row, sum_{a,b} y^(a+b) [M_a, N_b] as d1 d2 and the raw integers of each
    a + b, perhaps all 0: a pair adds M_a N_b and subtracts N_b M_a in one loop each."""
    nn, ops1, out = P1.dim * P1.dim, P1._operands(), []
    for P2 in row:
        acc: RawTerms = {}
        for a, e1, r1 in ops1:
            for b, e2, r2 in P2._operands():
                flat = acc.setdefault(tuple(map(operator.add, a, b)), [0] * nn)
                for rn, k, v in e1:
                    for c, w in r2[k]:
                        flat[rn + c] += v * w
                for rn, k, v in e2:
                    for c, w in r1[k]:
                        flat[rn + c] -= v * w
        out.append((P1.tall.den * P2.tall.den, acc))
    return out


def _lhd_row(B1: PolyLeftMap, row: Sequence[PolyLeftMap]) -> list[tuple[int, RawTerms]]:
    """The kernel on left maps, which carry the terms of their transposed right maps."""
    return _bracket_terms(B1, row)


def rhd(B1: PolyRightMap, B2: PolyRightMap) -> PolyRightMap:
    """Bracket on right maps: compose in the first argument, second frozen."""
    if not isinstance(B1, PolyRightMap) or not isinstance(B2, PolyRightMap):
        raise TypeError("rhd expects two right maps")
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    return PolyRightMap._of(B1.dim, *_stacked(B1.dim, *_bracket_terms(B1, [B2])[0]))


def lhd(B1: PolyLeftMap, B2: PolyLeftMap) -> PolyLeftMap:
    """Bracket on left maps: compose in the second argument, first frozen."""
    if not isinstance(B1, PolyLeftMap) or not isinstance(B2, PolyLeftMap):
        raise TypeError("lhd expects two left maps")
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    return PolyLeftMap._of(B1.dim, *_stacked(B1.dim, *_lhd_row(B1, [B2])[0]))


def random_fraction(rng: random.Random, span: int = 2) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_multi_index(rng: random.Random, n: int, max_degree: int = 2) -> MultiIndex:
    alpha = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def _random_map(rng: random.Random, cls, base_maps, derivations: Sequence[Matrix], n: int):
    """A random rational sum of `base_maps` plus up to two terms y^a D, D a random
    rational sum of `derivations`."""
    coeffs = [random_fraction(rng) for _ in base_maps]
    maps = list(base_maps)
    for _ in range(rng.randint(0, 2)):
        if not derivations:
            break
        alpha = random_multi_index(rng, n)
        den, flat = combine([random_fraction(rng) for _ in derivations],
                            [(d.den, d.sparse) for d in derivations], n, n)
        if any(flat):
            coeffs.append(1)
            maps.append(cls._of(n, *_stacked(n, den, {alpha: flat})))
    if not maps:
        return cls.zero(n)
    return _linear_combination(coeffs, maps)


def verify_lie_algebra(A: Algebra, side: str = "right", samples: int = 25,
                       seed: int = 0) -> list[CheckResult]:
    """Property suite: the bracket makes the biderivation side a Lie algebra.

    Draws `samples` triples of random right (or left) biderivations, each a
    rational sum over the computed bilinear basis plus up to two
    random degree <= 2 derivation-coefficient terms, and checks closure,
    bilinearity in both slots, alternativity, and the Jacobi sum, all in
    exact arithmetic. Violations are reported as counterexamples; none are
    expected for any algebra.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    right = side == "right"
    space = (right_bider_bilinear_space if right else left_bider_bilinear_space)(A)
    convert = from_tensor if right else from_tensor_left
    is_member = is_right_bider_poly if right else is_left_bider_poly
    cls, br = (PolyRightMap, rhd) if right else (PolyLeftMap, lhd)
    base_maps = [convert(t) for t in basis_tensors(space, A.dim)]
    ders = derivation_matrices(A)
    rng = random.Random(seed)
    suite = f"bracket-{side}"
    closure_bad = bilin_bad = alt_bad = jacobi_bad = None
    for s in range(samples):
        b1, b2, b3 = (_random_map(rng, cls, base_maps, ders, A.dim) for _ in range(3))
        if not all(is_member(A, b) for b in (b1, b2, b3)):
            raise RuntimeError("sample generator produced a non-biderivation")
        b12, b13, b23 = br(b1, b2), br(b1, b3), br(b2, b3)
        if closure_bad is None and not is_member(A, b12):
            closure_bad = s
        a, b = random_fraction(rng), random_fraction(rng)
        ab = (a, b)
        left_slot = (br(_linear_combination(ab, (b1, b2)), b3)
                     == _linear_combination(ab, (b13, b23)))
        right_slot = (br(b1, _linear_combination(ab, (b2, b3)))
                      == _linear_combination(ab, (b12, b13)))
        if bilin_bad is None and not (left_slot and right_slot):
            bilin_bad = s
        if alt_bad is None and not br(b1, b1).is_zero():
            alt_bad = s
        jac = _linear_combination((1, 1, 1), (br(b1, b23), br(b2, br(b3, b1)), br(b3, b12)))
        if jacobi_bad is None and not jac.is_zero():
            jacobi_bad = s
    def w(sample):
        return None if sample is None else {"sample": sample, "seed": seed}
    return [
        check(suite, "closure", closure_bad is None, w(closure_bad)),
        check(suite, "bilinearity", bilin_bad is None, w(bilin_bad)),
        check(suite, "alternativity", alt_bad is None, w(alt_bad)),
        check(suite, "jacobi", jacobi_bad is None, w(jacobi_bad)),
    ]


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

    It runs by rows: one kernel call brackets B1 with a row of B2 per side, a
    row's commutators at a frozen point are two stacked products, and values
    are raw integer lists, cross-multiplied where denominators differ. In (c)
    the left rows are columns: lhd(K_j, S_i) = -lhd(K_j^t, S_i) is in row j.
    """
    n, nn = A.dim, A.dim * A.dim
    tensors = basis_tensors(right_bider_bilinear_space(A), n)
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    frozen = basis + [tuple(x + y for x, y in zip(basis[j], basis[k]))
                      for j in range(n) for k in range(j + 1, n)]
    table: dict = {}  # each monomial's values at the frozen points

    def family(ts):
        """The right maps of ts, their denominators d, and per frozen v the matrices of x ->
        d t(x, v) side by side: per row r its entries (j nn + c, x); all as (j nn + r n, c, x)."""
        stack: dict = {}
        for j, t in enumerate(ts):
            cols = t.int_form()[2]  # cols[k][a] is column a of the matrix at e_k
            flats = ((basis[k], [c[p] for p in range(n) for c in cols[k]]) for k in range(n))
            for v, flat in _at_points(flats, frozen, table).items():
                wide_rows, wide_ents = stack.setdefault(v, ([[] for _ in range(n)], []))
                for p, x in enumerate(flat):
                    if x:
                        wide_rows[p // n].append((j * nn + p % n, x))
                        wide_ents.append((j * nn + p - p % n, p % n, x))
        return [from_tensor(t) for t in ts], [t.matrix.den for t in ts], stack

    def first_mismatch(side, comm, dens, size) -> int | None:
        """The first j at which the raw side[j] is not slice j of comm over dens[j], if any."""
        vals: dict = {}
        for j, (_, terms) in enumerate(side):
            for v, flat in _at_points(terms.items(), frozen, table).items():
                if v not in vals:
                    vals[v] = [0] * size
                vals[v][j * nn:(j + 1) * nn] = flat
        keys, zero = vals.keys() | comm.keys(), [0] * size
        if [den for den, _ in side] == dens and all(
                vals.get(v, zero) == comm.get(v, zero) for v in keys):
            return None
        at = [slice(j * nn, (j + 1) * nn) for j in range(len(dens))]
        return next((j for j, ((den, _), e) in enumerate(zip(side, dens)) if any(
            [x * e for x in vals.get(v, zero)[at[j]]] != [y * den for y in comm.get(v, zero)[at[j]]]
            for v in keys)), None)

    def first_bad(one, row, left) -> tuple[int | None, int | None]:
        """The first j at which rhd(B1, B2_j), and the first at which the raw left[j], is not
        the composition, for B1 and the B2_j the maps of the families one and row."""
        ([P1], [d1], own), (maps, dens, stack) = one, row
        size, dens = len(maps) * nn, [d1 * d for d in dens]
        right = _bracket_terms(P1, maps)
        comm = {}  # per frozen v, f1 [f_j ...] - [f_j ...] f1
        for v, (rows1, _) in own.items():
            if v in stack:
                wide_rows, wide_ents = stack[v]
                c = comm[v] = [0] * size
                add_product(c, rows1, wide_rows, n)
                for base, t, w in wide_ents:
                    for col, x in rows1[t]:
                        c[base + col] -= w * x
        j = first_mismatch(right, comm, dens, size)
        return j, j if left == right else first_mismatch(left, comm, dens, size)

    def failing(i, *js):  # the failing pairs (i, j) of row i
        return [(i, j) for j in js if j is not None]

    m = len(tensors)
    sym, skew = [symmetrize(t) for t in tensors], [skew_symmetrize(t) for t in tensors]
    rights, syms, skews = family(tensors), family(sym), family(skew)
    lefts_t, skew_lt = ([from_tensor_left(t.transpose()) for t in ts] for ts in (tensors, skew))
    # S = S^t: its right map read as a left one is the left map of S and of S^t
    sym_l, skew_l = [P.transpose() for P in syms[0]], [from_tensor_left(t) for t in skew]
    main, matched, mixed, doubles = [], [], [], []
    for i in range(m):
        r, s, k = family([tensors[i]]), family([sym[i]]), family([skew[i]])
        if not main:
            main += failing(i, *first_bad(r, rights, _lhd_row(lefts_t[i], lefts_t)))
        if not matched:
            matched += failing(i, *first_bad(s, syms, _lhd_row(sym_l[i], sym_l)),
                               *first_bad(k, skews, _lhd_row(skew_l[i], skew_l)))
        # (c): lhd(K_i, S_j) = -lhd(K_i^t, S_j), and minus its composition is K_i's with S_j,
        # so row i checks it for the pair (j, i); lhd(S_i, K_j) likewise
        r1, l2 = first_bad(s, skews, _lhd_row(sym_l[i], skew_lt))
        r2, l1 = first_bad(k, syms, _lhd_row(skew_lt[i], sym_l))
        mixed += failing(i, r1, r2) + [(j, i) for j in (l1, l2) if j is not None]
        # (a) on 2m pairs of doubles, whose brackets mix the terms of different monomials
        # where those of the basis maps may all vanish (on L4 they do)
        j = (i + 1) % m
        if not doubles:
            doubles += failing(i, *first_bad(s, family([sym[j], skew[j]]),
                                             _lhd_row(sym_l[i], [sym_l[j], skew_lt[j]])))
    found = [{"basis_pair": list(min(p))} if p else None for p in (main, matched, mixed)]
    if found[0] is None and doubles:
        i, k = min(doubles)
        found[0] = {"basis_pair": [i, (i + 1) % m], "doubles": ("symmetric", "symmetric-skew")[k]}
    return [check("transpose", identity, bad is None, bad) for identity, bad in zip(
        ("bracket-transpose-identity", "matched-symmetry-swap", "mixed-symmetry-swap"), found)]


def counterexample_bracket(A: Algebra, B1: BilinearTensor, B2: BilinearTensor) -> BilinearTensor:
    """Bracket of two bilinear maps, read back on basis pairs.

    The full bracket is quadratic in the frozen argument; this is its
    bilinear shadow, the object the worked counterexample inspects with
    the left/right predicates.
    """
    return basis_evaluation_tensor(rhd(from_tensor(B1), from_tensor(B2)))
