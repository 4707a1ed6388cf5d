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

The arithmetic runs in integers. A map is its integer form: one
denominator and, per monomial, the row-major integer entries of its
coefficient matrix over it. Map files are parsed into that form and written
from it (`formats`). The bracket reads each operand term as its sparse
integer rows and its flat list of nonzero entries, and adds both halves of
every pair commutator, +M_a N_b and -N_b M_a, into one integer entry list
per output monomial a + b, over the product of the operands' denominators;
sums and scalar multiples of maps go through `linalg.combine`. Neither
reduces what it returns. A map is put in lowest terms, as sparse integer
rows (`_PolyMap.scaled`), when it is used as an operand or hashed; its
`Fraction` matrices (`terms`) are a view built and kept on first read.
`lhd` runs the same kernel, since a left map carries the terms of its
transposed right map. The public constructor takes `Fraction` matrices,
validates them, and derives the integer form from them on first use.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

from .algebras import Algebra
from .bilinear import BilinearTensor, skew_symmetrize, symmetrize
from .biderivations import (basis_tensors, left_bider_bilinear_space,
                            right_bider_bilinear_space)
from .derivations import derivation_matrices, derives
from .linalg import (IntRows, Matrix, Vector, add_commutator, basis_vector, combination,
                     combine, flat_rows, from_int_flat, int_scaled)
from .report import CheckResult, check

MultiIndex = tuple[int, ...]


def monomial_value(alpha: MultiIndex, v: Sequence[Fraction]) -> Fraction:
    """v^alpha = product of v_i ** alpha_i; an int when v holds ints."""
    return math.prod(x ** a for a, x in zip(alpha, v) if a)


def _unit_index(j: int, n: int) -> MultiIndex:
    return tuple(1 if i == j else 0 for i in range(n))


def _clean(terms: Mapping[MultiIndex, Matrix]) -> dict[MultiIndex, Matrix]:
    return {a: m for a, m in terms.items() if not m.is_zero()}


IntTerms = dict[MultiIndex, list[int]]
Scaled = tuple[int, list[tuple[MultiIndex, IntRows]]]


class _PolyMap:
    """Shared mechanics of the two polynomial map representations.

    `_frozen` is the argument the monomials read: 1 (y) for right maps, 0 (x) for left.
    A map is its integer form: a denominator `_den` and, per monomial, the
    row-major integer entries of `_den` times its coefficient matrix, none
    all zero and not necessarily in lowest terms. A map is immutable, so
    what is derived from that form is derived once and kept: the `terms`
    view and the lowest-terms operand rows of `scaled`. The public
    constructor is given the `Fraction` matrices instead, and derives the
    integer form from them on first use (`_int_form`).
    """

    __slots__ = ("dim", "_den", "_ints", "_terms", "_scaled")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, Matrix]):
        for a, m in terms.items():
            if len(a) != dim or any(e < 0 for e in a):
                raise ValueError(f"bad multi-index {a} for dim {dim}")
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"coefficient matrix must be {dim}x{dim}")
        self.dim = dim
        self._terms = _clean(terms)
        self._den = self._ints = self._scaled = None

    @classmethod
    def _of(cls, dim: int, den: int, ints: IntTerms, terms: dict[MultiIndex, Matrix] | None = None,
            scaled: Scaled | None = None):
        # trusted constructor: ints maps valid multi-indices to nonzero dim*dim entry lists
        P = object.__new__(cls)
        P.dim = dim
        P._den = den
        P._ints = ints
        P._terms = terms
        P._scaled = scaled
        return P

    @classmethod
    def zero(cls, dim: int):
        return cls(dim, {})

    @classmethod
    def single(cls, dim: int, alpha: MultiIndex, m: Matrix):
        return cls(dim, {tuple(alpha): m})

    @property
    def terms(self) -> dict[MultiIndex, Matrix]:
        """The coefficient matrix of each monomial, as `Fraction`s: a view of the
        integer form, built on first read and kept. Read it, do not change it."""
        if self._terms is None:
            n, den = self.dim, self._den
            self._terms = {a: from_int_flat(flat, n, den) for a, flat in self._ints.items()}
        return self._terms

    def _int_form(self) -> tuple[int, IntTerms]:
        """(den, entries per monomial). For a map built from `Fraction` matrices it
        is computed here, once, from one read of each entry's integer ratio, over
        their least common denominator, which puts it in lowest terms."""
        if self._ints is None:
            ratios = {a: [x.as_integer_ratio() for row in m.data for x in row]
                      for a, m in self._terms.items()}
            den = self._den = math.lcm(*{d for flat in ratios.values() for _, d in flat})
            self._ints = {a: [p * (den // d) for p, d in flat] for a, flat in ratios.items()}
        return self._den, self._ints

    def scaled(self) -> Scaled:
        """(d, [(a, rows)]): the integer form in lowest terms, d the least common
        denominator of the coefficient matrices and rows the sparse integer rows of
        d * M_a. The operand form of the kernels; computed once per map."""
        den, ints = self._int_form()
        if self._scaled is None:
            n = self.dim
            g = den
            for flat in ints.values():
                if g == 1:
                    break
                g = math.gcd(g, *flat)
            if g != 1:
                ints = {a: [x // g for x in flat] for a, flat in ints.items()}
            self._scaled = den // g, [(a, flat_rows(flat, n)) for a, flat in ints.items()]
        return self._scaled

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        frozen, free = (y, x) if self._frozen else (x, y)
        return self.fixed_arg(frozen).apply(free)

    def fixed_arg(self, v: Sequence[Fraction]) -> Matrix:
        """The linear map in the free argument when the frozen one is v."""
        den, terms = self.scaled()
        return combination([monomial_value(a, v) for a, _ in terms],
                           [(den, rows) for _, rows in terms], self.dim, self.dim)

    def is_zero(self) -> bool:
        return not self._int_form()[1]

    def degree(self) -> int:
        """Largest total degree in the frozen argument; -1 for the zero map."""
        return max((sum(a) for a in self._int_form()[1]), default=-1)

    def support(self) -> set[MultiIndex]:
        return set(self._int_form()[1])

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return _linear_combination((1, 1), (self, other))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return _linear_combination((1, -1), (self, other))

    def __neg__(self):
        den, ints = self._int_form()
        return type(self)._of(self.dim, den, {a: [-x for x in flat] for a, flat in ints.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _linear_combination((other,), (self,))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        # equal lowest-terms forms, compared without reducing either
        if type(other) is not type(self) or self.dim != other.dim:
            return False
        (d, a), (e, b) = self._int_form(), other._int_form()
        return a.keys() == b.keys() and all(_same((d, flat), (e, b[m])) for m, flat in a.items())

    def __hash__(self):
        den, terms = self.scaled()
        return hash((type(self).__name__, self.dim, den,
                     frozenset((a, tuple(map(tuple, rows))) for a, rows in terms)))

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.dim}, terms={len(self.support())}, "
                f"degree={self.degree()})")


def _same(p: tuple[int, list[int]], q: tuple[int, list[int]]) -> bool:
    """p = (d, a) and q = (e, b) hold the same rationals a / d and b / e: a e = b d."""
    (d, a), (e, b) = p, q
    return a == b if d == e else [x * e for x in a] == [y * d for y in b]


def _linear_combination(coeffs: Sequence[Fraction], maps: Sequence[_PolyMap]):
    """sum_i coeffs[i] * maps[i] for maps of one class, in integers.

    Each map enters `combine` as one tall matrix: its lowest-terms rows
    stacked in one block per monomial of the union of the supports.
    """
    cls, n = type(maps[0]), maps[0].dim
    if any(P.dim != n for P in maps):
        raise ValueError("dimension mismatch")
    used = [(f, P.scaled()) for f, P in zip(coeffs, maps) if f]
    block: dict[MultiIndex, int] = {}
    for _, (_, terms) in used:
        for a, _ in terms:
            block.setdefault(a, len(block))
    tall = []
    for _, (den, terms) in used:
        rows: IntRows = [[]] * (len(block) * n)
        for a, r in terms:
            i = block[a] * n
            rows[i:i + n] = r
        tall.append((den, rows))
    den, flat = combine([f for f, _ in used], tall, len(block) * n, n)
    size = n * n
    ints = {}
    for a, i in block.items():
        out = flat[i * size:(i + 1) * size]
        if any(out):
            ints[a] = out
    return cls._of(n, den, ints)


class PolyRightMap(_PolyMap):
    """B(x, y) = sum_a y^a (M_a x): linear in x, polynomial in y."""

    _frozen = 1

    def transpose(self) -> "PolyLeftMap":
        """(x, y) -> B(y, x): the same terms read as a left map."""
        return PolyLeftMap._of(self.dim, self._den, self._ints, self._terms, self._scaled)


class PolyLeftMap(_PolyMap):
    """B(x, y) = sum_a x^a (N_a y): polynomial in x, linear in y."""

    _frozen = 0

    def transpose(self) -> "PolyRightMap":
        return PolyRightMap._of(self.dim, self._den, self._ints, self._terms, self._scaled)


def from_tensor(B: BilinearTensor) -> PolyRightMap:
    """Bilinear map as a right poly map: one degree-1 term per basis column."""
    n = B.dim
    return PolyRightMap(n, {_unit_index(j, n): B.column_map(j) for j in range(n)})


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
    return BilinearTensor(n, [[P.evaluate(basis_vector(i, n), basis_vector(j, n))
                               for j in range(n)] for i in range(n)])


def is_right_bider_poly(A: Algebra, P: PolyRightMap) -> bool:
    """Right biderivation test: every coefficient matrix is a derivation.

    Over Q the monomials y^a are linearly independent as functions, so this
    coefficient-wise criterion is equivalent to x -> B(x, y) being a
    derivation for every y. Each matrix is asked through its integer columns,
    which are strided slices of the map's row-major integer entries.
    """
    if A.dim != P.dim:
        raise ValueError("dimension mismatch")
    n = P.dim
    return all(derives(A, [flat[p::n] for p in range(n)]) for flat in P._int_form()[1].values())


def is_left_bider_poly(A: Algebra, P: PolyLeftMap) -> bool:
    """Left maps: P is a left biderivation iff its transpose is a right one."""
    return is_right_bider_poly(A, P.transpose())


def _entries(rows: IntRows, n: int) -> list[tuple[int, int, int]]:
    """The nonzero entries (r n, k, v) of a matrix given by its sparse integer rows."""
    return [(r * n, k, v) for r, row in enumerate(rows) for k, v in row]


def _bracket_terms(P1: _PolyMap, P2: _PolyMap) -> tuple[int, IntTerms]:
    """sum_{a,b} y^(a+b) [M_a, N_b] as an integer form (den, entries per monomial) over
    d1 d2, from the operands' lowest-terms rows: a pair of terms adds M_a N_b and
    subtracts N_b M_a in one flat loop each."""
    (d1, t1), (d2, t2) = P1.scaled(), P2.scaled()
    n = P1.dim
    ops1, ops2 = ([(a, _entries(rows, n), rows) for a, rows in t] for t in (t1, t2))
    acc: IntTerms = {}
    for a, e1, r1 in ops1:
        for b, e2, r2 in ops2:
            g = tuple([x + y for x, y in zip(a, b)])
            out = acc.get(g)
            if out is None:
                out = acc[g] = [0] * (n * n)
            for rn, k, v in e1:
                for c, w in r2[k]:
                    out[rn + c] += v * w
            for rn, k, v in e2:
                for c, w in r1[k]:
                    out[rn + c] -= v * w
    return d1 * d2, {g: out for g, out in acc.items() if any(out)}


def rhd(B1: PolyRightMap, B2: PolyRightMap) -> PolyRightMap:
    """Bracket on right maps: compose in the first argument, second frozen."""
    if not isinstance(B1, PolyRightMap) or not isinstance(B2, PolyRightMap):
        raise TypeError("rhd expects two right maps")
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    return PolyRightMap._of(B1.dim, *_bracket_terms(B1, B2))


def lhd(B1: PolyLeftMap, B2: PolyLeftMap) -> PolyLeftMap:
    """Bracket on left maps: compose in the second argument, first frozen."""
    if not isinstance(B1, PolyLeftMap) or not isinstance(B2, PolyLeftMap):
        raise TypeError("lhd expects two left maps")
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    return PolyLeftMap._of(B1.dim, *_bracket_terms(B1, B2))


def random_fraction(rng: random.Random, span: int = 2) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_multi_index(rng: random.Random, n: int, max_degree: int = 2) -> MultiIndex:
    alpha = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def _random_map(rng: random.Random, cls, base_maps, derivations: Sequence[tuple[int, IntRows]],
                n: int):
    """A random combination of `base_maps` plus up to two terms y^a D, D a random
    combination of the scaled `derivations`."""
    coeffs = [random_fraction(rng) for _ in base_maps]
    maps = list(base_maps)
    for _ in range(rng.randint(0, 2)):
        if not derivations:
            break
        alpha = random_multi_index(rng, n)
        den, flat = combine([random_fraction(rng) for _ in derivations], derivations, n, n)
        if any(flat):
            coeffs.append(1)
            maps.append(cls._of(n, den, {alpha: flat}))
    if not maps:
        return cls.zero(n)
    return _linear_combination(coeffs, maps)


def verify_lie_algebra(A: Algebra, side: str = "right", samples: int = 25,
                       seed: int = 0) -> list[CheckResult]:
    """Property suite: the bracket makes the biderivation side a Lie algebra.

    Draws `samples` triples of random right (or left) biderivations, each a
    rational combination of the computed bilinear basis plus up to two
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
    ders = [int_scaled(d.data) for d in derivation_matrices(A)]
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
    biderivations. Each side is also compared with the composition it
    stands for, from the tensors themselves:

      rhd(B1, B2)(x, y) = B1(B2(x, y), y) - B2(B1(x, y), y)
      lhd(B1, B2)(x, y) = B1(x, B2(x, y)) - B2(x, B1(x, y)).

    The frozen argument runs over every e_j and e_j + e_k (j < k), the free
    one over every e_p at once: with the frozen argument fixed, each tensor
    is the matrix whose column p is `BilinearTensor.evaluate` at e_p, and
    the composition is the commutator of two such matrices. A frozen sum
    makes the cross terms y^(a+b), a != b, of the bracket count. Every side
    is compared in integers, as a numerator matrix over its denominator.
    """
    n = A.dim
    tensors = basis_tensors(right_bider_bilinear_space(A), n)
    suite = "transpose"
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    frozen = basis + [tuple(x + y for x, y in zip(basis[j], basis[k]))
                      for j in range(n) for k in range(j + 1, n)]
    at_frozen: dict[MultiIndex, list[int]] = {}  # each monomial's values at the frozen points

    def frozen_maps(value):
        """Per frozen v, the scaled matrix whose column p is value(e_p, v); None when it is 0."""
        out = []
        for v in frozen:
            den, rows = int_scaled(tuple(zip(*(value(e, v) for e in basis))))
            out.append((den, rows) if any(rows) else None)
        return out

    # an operand is its poly map and its frozen matrices
    def right_op(t):
        return from_tensor(t), frozen_maps(t.evaluate)

    def left_op(t):
        return from_tensor_left(t), frozen_maps(lambda e, v: t.evaluate(v, e))

    def values(P):
        """Per frozen v, P's matrix in the free argument, from every term of P's integer form."""
        den, ints = P._int_form()
        out = [[0] * (n * n) for _ in frozen]
        for a, flat in ints.items():
            ws = at_frozen.get(a)
            if ws is None:
                ws = at_frozen[a] = [monomial_value(a, v) for v in frozen]
            for k, w in enumerate(ws):
                if w:
                    out[k] = [x + w * y for x, y in zip(out[k], flat)]
        return [(den, flat) for flat in out]

    def is_composition(got, f1, f2) -> bool:
        """got equals f1 f2 - f2 f1; with an operand 0 that is got = 0, and no product."""
        if f1 is None or f2 is None:
            return not any(got[1])
        (d1, a), (d2, b) = f1, f2
        out = [0] * (n * n)
        add_commutator(out, a, b, n)
        return _same(got, (d1 * d2, out))

    def holds(r1, r2, l1, l2) -> bool:
        """rhd(r1, r2)(x, y) = lhd(l1, l2)(y, x), each side equal to its composition."""
        right, left = values(rhd(r1[0], r2[0])), values(lhd(l1[0], l2[0]))
        for k, got in enumerate(right):
            if not (_same(got, left[k]) and is_composition(got, r1[1][k], r2[1][k])
                    and is_composition(left[k], l1[1][k], l2[1][k])):
                return False
        return True

    m = len(tensors)
    rights = [right_op(t) for t in tensors]
    lefts_of_transpose = [left_op(t.transpose()) for t in tensors]
    sym = [symmetrize(t) for t in tensors]
    skew = [skew_symmetrize(t) for t in tensors]
    # a symmetric double is its own transpose: its left operand is its right one
    # read as a left map, with the same frozen matrices
    sym_r = [right_op(t) for t in sym]
    sym_l = [(P.transpose(), maps) for P, maps in sym_r]
    skew_r, skew_l = [right_op(t) for t in skew], [left_op(t) for t in skew]
    skew_lt = [left_op(t.transpose()) for t in skew]

    main_bad = matched_bad = mixed_bad = None
    for i in range(m):
        for j in range(m):
            if main_bad is None and not holds(rights[i], rights[j],
                                              lefts_of_transpose[i], lefts_of_transpose[j]):
                main_bad = {"basis_pair": [i, j]}
            if matched_bad is None and not (holds(sym_r[i], sym_r[j], sym_l[i], sym_l[j])
                                            and holds(skew_r[i], skew_r[j], skew_l[i], skew_l[j])):
                matched_bad = {"basis_pair": [i, j]}
            if mixed_bad is None and not (holds(sym_r[i], skew_r[j], skew_l[j], sym_l[i])
                                          and holds(skew_r[i], sym_r[j], sym_l[j], skew_l[i])):
                mixed_bad = {"basis_pair": [i, j]}
    # (a) holds for any bilinear maps, so it also runs on 2m pairs of doubles,
    # whose brackets mix the terms of different monomials where those of the
    # basis maps may all vanish (on L4 they do). A symmetric double is its own
    # transpose, so sym_l[i] is the left map of sym[i]^t.
    for i in range(m):
        j = (i + 1) % m
        for doubles, r2, l2 in (("symmetric", sym_r[j], sym_l[j]),
                                ("symmetric-skew", skew_r[j], skew_lt[j])):
            if main_bad is None and not holds(sym_r[i], r2, sym_l[i], l2):
                main_bad = {"basis_pair": [i, j], "doubles": doubles}

    return [
        check(suite, "bracket-transpose-identity", main_bad is None, main_bad),
        check(suite, "matched-symmetry-swap", matched_bad is None, matched_bad),
        check(suite, "mixed-symmetry-swap", mixed_bad is None, mixed_bad),
    ]


def counterexample_bracket(A: Algebra, B1: BilinearTensor, B2: BilinearTensor) -> BilinearTensor:
    """Bracket of two bilinear maps, read back on basis pairs.

    The full bracket is quadratic in the frozen argument; this is its
    bilinear shadow, the object the worked counterexample inspects with
    the left/right predicates.
    """
    return basis_evaluation_tensor(rhd(from_tensor(B1), from_tensor(B2)))
