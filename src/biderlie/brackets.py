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

The bracket is computed in integers. Each operand's coefficient matrices
are scaled once per call to sparse integer rows over one common
denominator d1 (resp. d2). Both halves of every pair commutator,
+M_a N_b and -N_b M_a, are added into one integer entry list per output
monomial a + b. Each output that is not all zero becomes one `Fraction`
matrix, over d1 * d2. `lhd` runs the same kernel, since a left map carries
the terms of its transposed right map.
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
from .derivations import derivation_matrices, is_derivation
from .linalg import (IntRows, Matrix, Vector, add_commutator, basis_vector,
                     common_denominator, from_int_flat, int_rows, int_scaled)
from .report import CheckResult, check

MultiIndex = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def monomial_value(alpha: MultiIndex, v: Sequence[Fraction]) -> Fraction:
    """v^alpha = product of v_i ** alpha_i."""
    out = _ONE
    for a, x in zip(alpha, v):
        if a:
            if not x:
                return _ZERO
            out *= x ** a
    return out


def _unit_index(j: int, n: int) -> MultiIndex:
    return tuple(1 if i == j else 0 for i in range(n))


def _clean(terms: Mapping[MultiIndex, Matrix]) -> dict[MultiIndex, Matrix]:
    return {a: m for a, m in terms.items() if not m.is_zero()}


class _PolyMap:
    """Shared mechanics of the two polynomial map representations.

    `_frozen` is the argument the monomials read: 1 (y) for right maps, 0 (x) for left.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, Matrix]):
        for a, m in terms.items():
            if len(a) != dim or any(e < 0 for e in a):
                raise ValueError(f"bad multi-index {a} for dim {dim}")
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"coefficient matrix must be {dim}x{dim}")
        self.dim = dim
        self.terms = _clean(terms)

    @classmethod
    def zero(cls, dim: int):
        return cls(dim, {})

    @classmethod
    def single(cls, dim: int, alpha: MultiIndex, m: Matrix):
        return cls(dim, {tuple(alpha): m})

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        frozen, free = (y, x) if self._frozen else (x, y)
        out = [_ZERO] * self.dim
        for a, m in self.terms.items():
            f = monomial_value(a, frozen)
            if f:
                for r, v in enumerate(m.apply(free)):
                    if v:
                        out[r] += f * v
        return tuple(out)

    def fixed_arg(self, v: Sequence[Fraction]) -> Matrix:
        """The linear map in the free argument when the frozen one is v."""
        acc = Matrix.zeros(self.dim, self.dim)
        for a, m in self.terms.items():
            f = monomial_value(a, v)
            if f:
                acc = acc + f * m
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total degree in the frozen argument; -1 for the zero map."""
        return max((sum(a) for a in self.terms), default=-1)

    def support(self) -> set[MultiIndex]:
        return set(self.terms)

    def _combine(self, other, sign: int):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        acc = dict(self.terms)
        for a, m in other.terms.items():
            cur = acc.get(a)
            add = m if sign > 0 else -m
            acc[a] = add if cur is None else cur + add
        return type(self)(self.dim, acc)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other, +1)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self.dim, {a: -m for a, m in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return type(self)(self.dim, {a: f * m for a, m in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, terms={len(self.terms)}, degree={self.degree()})"


class PolyRightMap(_PolyMap):
    """B(x, y) = sum_a y^a (M_a x): linear in x, polynomial in y."""

    _frozen = 1
    fixed_second_arg = _PolyMap.fixed_arg

    def transpose(self) -> "PolyLeftMap":
        """(x, y) -> B(y, x): the same terms read as a left map."""
        return PolyLeftMap(self.dim, dict(self.terms))


class PolyLeftMap(_PolyMap):
    """B(x, y) = sum_a x^a (N_a y): polynomial in x, linear in y."""

    _frozen = 0
    fixed_first_arg = _PolyMap.fixed_arg

    def transpose(self) -> "PolyRightMap":
        return PolyRightMap(self.dim, dict(self.terms))


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
    derivation for every y.
    """
    if A.dim != P.dim:
        raise ValueError("dimension mismatch")
    return all(is_derivation(A, m) for m in P.terms.values())


def is_left_bider_poly(A: Algebra, P: PolyLeftMap) -> bool:
    """Left maps: P is a left biderivation iff its transpose is a right one."""
    return is_right_bider_poly(A, P.transpose())


def _scaled_terms(terms: Mapping[MultiIndex, Matrix]
                  ) -> tuple[int, list[tuple[MultiIndex, IntRows]]]:
    """The coefficient matrices over one common denominator, as sparse integer rows."""
    den = common_denominator(terms.values())
    return den, [(a, int_rows(m, den)) for a, m in terms.items()]


def _bracket_terms(t1: Mapping[MultiIndex, Matrix], t2: Mapping[MultiIndex, Matrix]) -> dict[MultiIndex, Matrix]:
    """sum_{a,b} y^(a+b) [M_a, N_b], accumulated in integers per output monomial."""
    if not t1 or not t2:
        return {}
    (d1, rows1), (d2, rows2) = _scaled_terms(t1), _scaled_terms(t2)
    n = len(rows1[0][1])
    acc: dict[MultiIndex, list[int]] = {}
    for a, m in rows1:
        for b, nmat in rows2:
            g = tuple(x + y for x, y in zip(a, b))
            out = acc.get(g)
            if out is None:
                out = acc[g] = [0] * (n * n)
            add_commutator(out, m, nmat, n)
    den = d1 * d2
    return {g: from_int_flat(out, n, den) for g, out in acc.items() if any(out)}


def rhd(B1: PolyRightMap, B2: PolyRightMap) -> PolyRightMap:
    """Bracket on right maps: compose in the first argument, second frozen."""
    if not isinstance(B1, PolyRightMap) or not isinstance(B2, PolyRightMap):
        raise TypeError("rhd expects two right maps")
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    return PolyRightMap(B1.dim, _bracket_terms(B1.terms, B2.terms))


def lhd(B1: PolyLeftMap, B2: PolyLeftMap) -> PolyLeftMap:
    """Bracket on left maps: compose in the second argument, first frozen."""
    if not isinstance(B1, PolyLeftMap) or not isinstance(B2, PolyLeftMap):
        raise TypeError("lhd expects two left maps")
    if B1.dim != B2.dim:
        raise ValueError("dimension mismatch")
    return PolyLeftMap(B1.dim, _bracket_terms(B1.terms, B2.terms))


def random_fraction(rng: random.Random, span: int = 2) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_multi_index(rng: random.Random, n: int, max_degree: int = 2) -> MultiIndex:
    alpha = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def _random_matrix_combo(rng: random.Random, mats: Sequence[Matrix], n: int) -> Matrix:
    acc = Matrix.zeros(n, n)
    for m in mats:
        f = random_fraction(rng)
        if f:
            acc = acc + f * m
    return acc


def _random_map(rng: random.Random, cls, base_maps, derivations, n: int):
    acc = cls.zero(n)
    for bm in base_maps:
        f = random_fraction(rng)
        if f:
            acc = acc + f * bm
    for _ in range(rng.randint(0, 2)):
        if not derivations:
            break
        alpha = random_multi_index(rng, n)
        m = _random_matrix_combo(rng, derivations, n)
        if not m.is_zero():
            acc = acc + cls.single(n, alpha, m)
    return acc


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
    ders = derivation_matrices(A)
    rng = random.Random(seed)
    suite = f"bracket-{side}"
    closure_bad = bilin_bad = alt_bad = jacobi_bad = None
    for s in range(samples):
        b1, b2, b3 = (_random_map(rng, cls, base_maps, ders, A.dim) for _ in range(3))
        if not all(is_member(A, b) for b in (b1, b2, b3)):
            raise RuntimeError("sample generator produced a non-biderivation")
        if closure_bad is None and not is_member(A, br(b1, b2)):
            closure_bad = s
        a, b = random_fraction(rng), random_fraction(rng)
        left_slot = br(a * b1 + b * b2, b3) == a * br(b1, b3) + b * br(b2, b3)
        right_slot = br(b1, a * b2 + b * b3) == a * br(b1, b2) + b * br(b1, b3)
        if bilin_bad is None and not (left_slot and right_slot):
            bilin_bad = s
        if alt_bad is None and not br(b1, b1).is_zero():
            alt_bad = s
        jac = br(b1, br(b2, b3)) + br(b2, br(b3, b1)) + br(b3, br(b1, b2))
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

      (a) rhd(B1, B2)(x, y) = lhd(B1^t, B2^t)(y, x);
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

    def frozen_maps(value):
        """Per frozen v, the matrix whose column p is value(e_p, v)."""
        return [int_scaled(Matrix._wrap(tuple(zip(*(value(e, v) for e in basis))))) for v in frozen]

    # an operand is its poly map and its frozen matrices
    def right_op(t):
        return from_tensor(t), frozen_maps(t.evaluate)

    def left_op(t):
        return from_tensor_left(t), frozen_maps(lambda e, v: t.evaluate(v, e))

    def values(P):
        """Per frozen v, P's matrix in the free argument."""
        den, rows = _scaled_terms(P.terms)
        out = []
        for v in frozen:
            acc = [0] * (n * n)
            for a, m in rows:
                f = math.prod(x ** e for x, e in zip(v, a))
                if f:
                    for r, row in enumerate(m):
                        for c, w in row:
                            acc[r * n + c] += f * w
            out.append((den, acc))
        return out

    def composition(f1, f2):
        (d1, a), (d2, b) = f1, f2
        out = [0] * (n * n)
        add_commutator(out, a, b, n)
        return d1 * d2, out

    def same(p, q) -> bool:
        (dp, a), (dq, b) = p, q
        return a == b if dp == dq else [x * dq for x in a] == [y * dp for y in b]

    def holds(r1, r2, l1, l2) -> bool:
        """rhd(r1, r2)(x, y) = lhd(l1, l2)(y, x), each side equal to its composition."""
        right, left = values(rhd(r1[0], r2[0])), values(lhd(l1[0], l2[0]))
        for k, got in enumerate(right):
            if not (same(got, left[k]) and same(got, composition(r1[1][k], r2[1][k]))
                    and same(left[k], composition(l1[1][k], l2[1][k]))):
                return False
        return True

    rights = [right_op(t) for t in tensors]
    lefts_of_transpose = [left_op(t.transpose()) for t in tensors]
    sym = [symmetrize(t) for t in tensors]
    skew = [skew_symmetrize(t) for t in tensors]
    sym_r, sym_l = [right_op(t) for t in sym], [left_op(t) for t in sym]
    skew_r, skew_l = [right_op(t) for t in skew], [left_op(t) for t in skew]

    main_bad = matched_bad = mixed_bad = None
    for i in range(len(tensors)):
        for j in range(len(tensors)):
            if main_bad is None and not holds(rights[i], rights[j],
                                              lefts_of_transpose[i], lefts_of_transpose[j]):
                main_bad = (i, j)
            if matched_bad is None and not (holds(sym_r[i], sym_r[j], sym_l[i], sym_l[j])
                                            and holds(skew_r[i], skew_r[j], skew_l[i], skew_l[j])):
                matched_bad = (i, j)
            if mixed_bad is None and not (holds(sym_r[i], skew_r[j], skew_l[j], sym_l[i])
                                          and holds(skew_r[i], sym_r[j], sym_l[j], skew_l[i])):
                mixed_bad = (i, j)

    def w(pair):
        return None if pair is None else {"basis_pair": list(pair)}
    return [
        check(suite, "bracket-transpose-identity", main_bad is None, w(main_bad)),
        check(suite, "matched-symmetry-swap", matched_bad is None, w(matched_bad)),
        check(suite, "mixed-symmetry-swap", mixed_bad is None, w(mixed_bad)),
    ]


def counterexample_bracket(A: Algebra, B1: BilinearTensor, B2: BilinearTensor) -> BilinearTensor:
    """Bracket of two bilinear maps, read back on basis pairs.

    The full bracket is quadratic in the frozen argument; this is its
    bilinear shadow, the object the worked counterexample inspects with
    the left/right predicates.
    """
    return basis_evaluation_tensor(rhd(from_tensor(B1), from_tensor(B2)))
