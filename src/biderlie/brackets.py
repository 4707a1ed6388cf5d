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
denominator, in lowest terms, so equal maps have equal forms. Map files are
parsed into that form and written from it (`formats`). The bracket reads
each operand block as its sparse integer rows and its flat list of nonzero
entries, and adds both halves of every pair commutator, +M_a N_b and
-N_b M_a, into one integer entry list per output monomial a + b, over the
product of the operands' denominators; sums and scalar multiples of maps go
through `linalg.combine`. The `Fraction` matrices (`terms`) are a view of
the blocks. `lhd` runs the same kernel, since a left map carries the terms
of its transposed right map. The public constructor takes `Matrix`
coefficients and stacks them over the lcm of their denominators.
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
from .linalg import IntRows, Matrix, Vector, basis_vector, combine, lowest_terms, mat_commutator
from .report import CheckResult, check

MultiIndex = tuple[int, ...]


def monomial_value(alpha: MultiIndex, v: Sequence[Fraction]) -> Fraction:
    """v^alpha = product of v_i ** alpha_i; an int when v holds ints."""
    return math.prod(x ** a for a, x in zip(alpha, v) if a)


class _PolyMap:
    """Shared mechanics of the two polynomial map representations.

    `_frozen` is the argument the monomials read: 1 (y) for right maps, 0 (x) for left.
    A map is its sorted `monomials` and one tall `Matrix`, whose block of
    `dim` rows i is the coefficient matrix of monomials[i], none all zero.
    The tall matrix holds one denominator across the monomials, in lowest
    terms, which the bracket kernel needs; so two maps are equal iff their
    monomials and tall matrices are. `terms` is a view of the blocks.
    """

    __slots__ = ("dim", "monomials", "tall")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, Matrix]):
        for a, m in terms.items():
            if len(a) != dim or any(e < 0 for e in a):
                raise ValueError(f"bad multi-index {a} for dim {dim}")
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"coefficient matrix must be {dim}x{dim}")
        den = math.lcm(*(m.den for m in terms.values()))
        self.dim = dim
        self.monomials, self.tall = _stacked(dim, den, {
            tuple(a): [x * (den // m.den) for x in m.ints] for a, m in terms.items()})

    @classmethod
    def _of(cls, dim: int, monomials: tuple[MultiIndex, ...], tall: Matrix):
        # trusted constructor: sorted valid monomials, no all-zero block in tall
        P = object.__new__(cls)
        P.dim = dim
        P.monomials = monomials
        P.tall = tall
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

    def _blocks(self) -> list[IntRows]:
        """The sparse integer rows of each block of the tall matrix, over its denominator."""
        n, rows = self.dim, self.tall.sparse
        return [rows[i:i + n] for i in range(0, len(rows), n or 1)]

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        frozen, free = (y, x) if self._frozen else (x, y)
        return self.fixed_arg(frozen).apply(free)

    def fixed_arg(self, v: Sequence[Fraction]) -> Matrix:
        """The linear map in the free argument when the frozen one is v."""
        n, den = self.dim, self.tall.den
        return Matrix._of(n, n, *combine([monomial_value(a, v) for a in self.monomials],
                                         [(den, rows) for rows in self._blocks()], n, n))

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
        for a, r in zip(P.monomials, P._blocks()):
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
    return BilinearTensor(n, [[P.evaluate(basis_vector(i, n), basis_vector(j, n))
                               for j in range(n)] for i in range(n)])


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


def _bracket_terms(P1: _PolyMap, P2: _PolyMap) -> tuple[tuple[MultiIndex, ...], Matrix]:
    """sum_{a,b} y^(a+b) [M_a, N_b] as the monomials and tall matrix of a map, over
    d1 d2, from the operands' blocks, each as its sparse rows and its nonzero
    entries (r n, k, v): a pair of terms adds M_a N_b and subtracts N_b M_a in
    one flat loop each."""
    n = P1.dim
    ops1, ops2 = ([(a, [(r * n, k, v) for r, row in enumerate(rows) for k, v in row], rows)
                   for a, rows in zip(P.monomials, P._blocks())] for P in (P1, P2))
    acc: dict[MultiIndex, list[int]] = {}
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
    return _stacked(n, P1.tall.den * P2.tall.den, acc)


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
    biderivations. The right side is also compared with the composition it
    stands for, from the tensors themselves:

      rhd(B1, B2)(x, y) = B1(B2(x, y), y) - B2(B1(x, y), y).

    The left side then equals its own composition, B1(x, B2(x, y)) -
    B2(x, B1(x, y)), too: its operands' frozen matrices are those of the
    right operands or, for a skew map, their negatives, so both sides
    commutate the same pair of matrices.

    The frozen argument runs over every e_j and e_j + e_k (j < k), the free
    one over every e_p at once: with the frozen argument fixed, each tensor
    is the matrix whose column p is its value at e_p, a sum of its column
    maps, and the composition is the commutator of two such matrices. A
    frozen sum makes the cross terms y^(a+b), a != b, of the bracket count.
    Every side is compared as an integer form in lowest terms.
    """
    n = A.dim
    tensors = basis_tensors(right_bider_bilinear_space(A), n)
    suite = "transpose"
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    frozen = basis + [tuple(x + y for x, y in zip(basis[j], basis[k]))
                      for j in range(n) for k in range(j + 1, n)]
    at_frozen: dict[MultiIndex, list[int]] = {}  # each monomial's values at the frozen points

    def frozen_maps(t):
        """Per frozen v, the matrix of x -> t(x, v), whose column p is t(e_p, v): a sum of
        t's column maps, read off its integer form; None when it is 0."""
        maps = [t.column_map(j) for j in range(n)]
        sums = maps + [maps[j] + maps[k] for j in range(n) for k in range(j + 1, n)]
        return [None if m.is_zero() else m for m in sums]

    # a right operand is its poly map and its frozen matrices; a left one is its poly map
    def right_op(t):
        return from_tensor(t), frozen_maps(t)

    def values(P):
        """Per frozen v, the lowest-terms integer form of P's matrix in the free argument,
        from every block of P's tall matrix."""
        nn, ints = n * n, P.tall.ints
        out = [[0] * nn for _ in frozen]
        for b, a in zip(range(0, len(ints), nn), P.monomials):
            ws = at_frozen.get(a)
            if ws is None:
                ws = at_frozen[a] = [monomial_value(a, v) for v in frozen]
            flat = ints[b:b + nn]
            for k, w in enumerate(ws):
                if w:
                    out[k] = [x + w * y for x, y in zip(out[k], flat)]
        return [lowest_terms(P.tall.den, flat) for flat in out]

    def holds(r1, r2, l1, l2) -> bool:
        """rhd(r1, r2)(x, y) = lhd(l1, l2)(y, x), and at every frozen point equal to f1 f2 -
        f2 f1, f1 and f2 the frozen matrices of r1 and r2; with one of them 0 that is a 0
        value, and no product. Two sides with equal integer forms have equal values."""
        R, L = rhd(r1[0], r2[0]), lhd(l1, l2)
        right = values(R)
        left = right if (R.monomials, R.tall) == (L.monomials, L.tall) else values(L)
        for got, other, f1, f2 in zip(right, left, r1[1], r2[1]):
            if got != other:
                return False
            if f1 is None or f2 is None:
                if any(got[1]):
                    return False
            else:
                c = mat_commutator(f1, f2)
                if got != (c.den, c.ints):
                    return False
        return True

    m = len(tensors)
    rights = [right_op(t) for t in tensors]
    lefts_of_transpose = [from_tensor_left(t.transpose()) for t in tensors]
    skew = [skew_symmetrize(t) for t in tensors]
    # a symmetric double is its own transpose: its left map is its right one
    # read as a left map
    sym_r = [right_op(symmetrize(t)) for t in tensors]
    sym_l = [P.transpose() for P, _ in sym_r]
    skew_r, skew_l = [right_op(t) for t in skew], [from_tensor_left(t) for t in skew]
    skew_lt = [from_tensor_left(t.transpose()) for t in skew]

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
    # transpose, so sym_l[i] is the left map of S_i^t.
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
