"""The scalar-times-derivation family B(x, y) = g(y) F(x).

Here g is a rational polynomial function of the frozen argument and F a
linear map. Such a map is a right biderivation iff F is a derivation
(given g not identically zero: a vanishing g makes B the zero map, which
is a right biderivation no matter what F is). The family is closed under
the right bracket, with

    rhd(B1, B2) = (g1 g2, [F1, F2]),

and it integrates: for a derivation F, s -> exp(sF) is a one-parameter
curve of automorphisms whose derivative at 0, scaled by g(y), recovers
B(x, y). The family's maps are built in integers: `to_poly_right` writes
the blocks of g(y) F(x) straight from g's coefficients and F's integer
form, with no `Fraction` matrix c F per monomial, and `ScalarPoly`
sums and products keep their terms through a trusted constructor.
`exp_curve_check` verifies the curve numerically with central
differences; it is the only floating-point code in the package. The
central difference tends to F for any matrix F, so only its derivation
guard tells a derivation apart. `power_leibniz_witness` checks the
automorphism itself, exactly: the coefficient of s^k/k! in exp(sF)[x, y] -
[exp(sF)x, exp(sF)y] is F^k[x, y] - sum_m C(k, m) [F^m x, F^(k-m) y], which
must vanish on basis pairs for k = 2..n. It checks those coefficients
only; for a derivation, k = 1, every one vanishes by induction on k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebras import Algebra
from .brackets import (MultiIndex, PolyRightMap, _expect, is_right_bider_poly, monomial_value,
                       rhd)
from .derivations import commutator, is_derivation
from .linalg import Matrix, Vector, basis_vector, check_index

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ScalarPoly:
    """Polynomial function Q^n -> Q with rational coefficients.

    Stored sparsely as multi-index -> coefficient; zero coefficients are
    never kept.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Mapping[MultiIndex, Fraction]):
        clean: dict[MultiIndex, Fraction] = {}
        for a, v in coeffs.items():
            if len(a) != dim or any(type(e) is not int or e < 0 for e in a):
                raise ValueError(f"bad multi-index {a} for dim {dim}")
            v = Fraction(v)
            if v:
                clean[tuple(a)] = v
        self.dim = dim
        self.coeffs = clean

    @classmethod
    def _of(cls, dim: int, coeffs: dict[MultiIndex, Fraction]) -> "ScalarPoly":
        # trusted constructor: valid multi-indices and nonzero Fractions, kept as given
        g = object.__new__(cls)
        g.dim, g.coeffs = dim, coeffs
        return g

    @classmethod
    def zero(cls, dim: int) -> "ScalarPoly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "ScalarPoly":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "ScalarPoly":
        """The projection y -> y_{i+1} (0-based argument)."""
        check_index(i, dim)
        return cls(dim, {tuple(1 if j == i else 0 for j in range(dim)): _ONE})

    def evaluate(self, y: Sequence[Fraction]) -> Fraction:
        if len(y) != self.dim:
            raise ValueError("dimension mismatch")
        return sum((v * monomial_value(a, y) for a, v in self.coeffs.items()), _ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        acc = dict(self.coeffs)
        for a, v in other.coeffs.items():
            acc[a] = acc.get(a, _ZERO) + v
        return ScalarPoly._of(self.dim, {a: v for a, v in acc.items() if v})

    def __mul__(self, other):
        if isinstance(other, ScalarPoly):
            if self.dim != other.dim:
                raise ValueError("dimension mismatch")
            acc: dict[MultiIndex, Fraction] = {}
            for a, va in self.coeffs.items():
                for b, vb in other.coeffs.items():
                    g = tuple(x + y for x, y in zip(a, b))
                    acc[g] = acc.get(g, _ZERO) + va * vb
            return ScalarPoly._of(self.dim, {a: v for a, v in acc.items() if v})
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return ScalarPoly._of(self.dim, {a: f * v for a, v in self.coeffs.items() if f})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"ScalarPoly(dim={self.dim}, terms={len(self.coeffs)})"


@dataclass(frozen=True)
class ScalarTimesDerivation:
    """The pair (g, F) representing B(x, y) = g(y) F(x).

    F is not required to be a derivation at construction time; the whole
    point of `iff_derivation_check` is to ask.
    """

    g: ScalarPoly
    F: Matrix

    def __post_init__(self):
        if self.F.rows != self.F.cols or self.F.rows != self.g.dim:
            raise ValueError("F must be square with the same dimension as g")

    @property
    def dim(self) -> int:
        return self.g.dim

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        f = self.g.evaluate(y)
        return tuple(f * v for v in self.F.apply(x))


def to_poly_right(s: ScalarTimesDerivation) -> PolyRightMap:
    """Expand g(y) F(x) into monomial terms c_a F, in integers: over L * F.den, L the lcm
    of the denominators of the c_a, block a is (L c_a) * F.ints."""
    F, coeffs = s.F, s.g.coeffs
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    scales = {a: c.numerator * (den // c.denominator) for a, c in coeffs.items()}
    return PolyRightMap._of(s.dim, den * F.den, {
        a: [k * x for x in F.ints] for a, k in scales.items()})


def decompose_by_basis(P: PolyRightMap) -> list[list[ScalarPoly]]:
    """The n frozen-first-argument maps f_i(y) = B(e_i, y).

    Returned as an n x n grid of scalar polynomials: entry [i][l] is the
    e_{l+1} coordinate of f_i. Linearity in the first argument means
    B(x, y) = sum_i x_i f_i(y) reconstructs B exactly, and the f_i are the
    unique maps doing so.
    """
    _expect(PolyRightMap, "decompose_by_basis", P)
    n, den, blocks = P.dim, P.den, P.blocks.items()
    return [[ScalarPoly(n, {a: Fraction(flat[l * n + i], den) for a, flat in blocks
                            if flat[l * n + i]}) for l in range(n)] for i in range(n)]


def iff_derivation_check(A: Algebra, s: ScalarTimesDerivation) -> bool:
    """Equivalence test: B = g(y)F(x) is a right biderivation iff F derives A.

    Requires g not identically zero; with g = 0 the map is identically zero
    and the right-hand side of the equivalence carries no information.
    """
    if s.g.is_zero():
        raise ValueError("g must not be identically zero (degenerate case)")
    if A.dim != s.dim:
        raise ValueError("dimension mismatch")
    return is_right_bider_poly(A, to_poly_right(s)) == is_derivation(A, s.F)


def class_bracket(s1: ScalarTimesDerivation, s2: ScalarTimesDerivation) -> ScalarTimesDerivation:
    """The bracket stays in the family: (g1 g2, [F1, F2])."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    return ScalarTimesDerivation(s1.g * s2.g, commutator(s1.F, s2.F))


def bracket_matches_poly_form(s1: ScalarTimesDerivation, s2: ScalarTimesDerivation) -> bool:
    """Diagram check: class_bracket then expand == expand then rhd, exactly."""
    return to_poly_right(class_bracket(s1, s2)) == rhd(to_poly_right(s1), to_poly_right(s2))


def exp_nilpotent_exact(F: Matrix, s: Fraction) -> Matrix:
    """exp(sF) as a terminating rational series; F must be nilpotent.

    For a nilpotent derivation this is an honest algebra automorphism in
    exact arithmetic, which is what makes it usable as a side oracle for
    the floating-point curve check.
    """
    n = F.rows
    s = Fraction(s)
    power = total = Matrix.identity(n)
    coeff = _ONE
    for k in range(1, n + 1):
        power = power * F
        if power.is_zero():
            return total
        coeff = coeff * s / k
        total = total + coeff * power
    raise ValueError("matrix is not nilpotent")


def power_leibniz_witness(A: Algebra, F: Matrix) -> tuple[int, int, int] | None:
    """The first (k, i, j), for k = 2..n and then basis pairs (e_i, e_j) in ascending
    order, at which F^k[e_i, e_j] = sum_m C(k, m) [F^m e_i, F^(k-m) e_j] fails, or None.

    In integers: both sides through the powers of P = d F, d = F.den, both scaled
    by d^k, and the product's nonzero structure constants.
    """
    n = A.dim
    if F.rows != n or F.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {F.rows}x{F.cols}")
    consts = [(r // n, r % n, l, x) for r, row in enumerate(A.product.matrix.sparse)
              for l, x in row]
    P, powers = Matrix._of(n, n, 1, F.ints), [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * P)
    cols = [[m.ints[p::n] for p in range(n)] for m in powers]    # cols[m][p] = P^m e_p

    def product(u, v) -> list[int]:
        out = [0] * n
        for a, b, l, x in consts:
            out[l] += x * u[a] * v[b]
        return out

    for k in range(2, n + 1):
        for i in range(n):
            for j in range(n):
                c = product(cols[0][i], cols[0][j])
                lhs = [sum(x * y for x, y in zip(powers[k].ints[r * n:(r + 1) * n], c))
                       for r in range(n)]
                rhs = [0] * n
                for m in range(k + 1):
                    rhs = [y + math.comb(k, m) * x
                           for y, x in zip(rhs, product(cols[m][i], cols[k - m][j]))]
                if lhs != rhs:
                    return k, i, j
    return None


# ---------------------------------------------------------------------------
# floating-point one-parameter curve check
# ---------------------------------------------------------------------------

def _to_float_matrix(m: Matrix) -> list[list[float]]:
    return [[float(x) for x in row] for row in m.data]


def _mat_mul_f(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def _mat_vec_f(a: list[list[float]], v: list[float]) -> list[float]:
    return [sum(r[k] * v[k] for k in range(len(v))) for r in a]


def expm_float(m: list[list[float]]) -> list[list[float]]:
    """Matrix exponential by scaling-and-squaring with a Taylor core."""
    n = len(m)
    norm = max((sum(abs(x) for x in row) for row in m), default=0.0)
    nsquare = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    scale = 1.0 / (2 ** nsquare)
    sm = [[x * scale for x in row] for row in m]
    acc = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    term = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    for k in range(1, 30):
        term = _mat_mul_f(term, sm)
        term = [[x / k for x in row] for row in term]
        acc = [[a + t for a, t in zip(ra, rt)] for ra, rt in zip(acc, term)]
        if max(abs(t) for row in term for t in row) < 1e-18:
            break
    for _ in range(nsquare):
        acc = _mat_mul_f(acc, acc)
    return acc


@dataclass(frozen=True)
class ExpCurveReport:
    """Central-difference derivative check of s -> g(y) exp(sF) x at s = 0."""

    errors: tuple[tuple[float, float], ...]   # (h, max relative error)
    orders: tuple[float, ...]                 # observed decay orders between steps
    tol: float
    tol_ok: bool
    decay_ok: bool
    exact: bool                               # errors at rounding level throughout

    @property
    def ok(self) -> bool:
        return self.tol_ok and self.decay_ok


_EXACT_FLOOR = 1e-10


def exp_curve_check(A: Algebra, s: ScalarTimesDerivation,
                    h_list: Sequence[float] = (1e-2, 1e-3, 1e-4),
                    tol: float = 1e-6) -> ExpCurveReport:
    """Compare the derivative of the automorphism curve against g(y) F x.

    The derivative at 0 of s -> g(y) exp(sF) x is approximated by central
    differences at each step in `h_list` and compared with the exact value
    g(y) F x over a deterministic grid of sample points (basis vectors and
    the all-ones vector in both slots). Reports the max relative error per
    step (absolute when the reference vector vanishes), whether the
    smallest step meets `tol`, and whether errors decay at second order
    across the sweep. Whenever F^3 = 0 the central difference is exact up
    to rounding, so an all-below-floor sweep also counts as passing decay.

    Raises for non-derivation F and for non-Lie algebras: the curve is an
    automorphism curve only in that setting. Raises for a step that is not
    finite and > 0, which would divide by zero or sort the sweep backwards.
    """
    if A.kind != "lie":
        raise ValueError("the one-parameter curve check needs a Lie algebra")
    if not is_derivation(A, s.F):
        raise ValueError("F must be a derivation")
    if A.dim != s.dim:
        raise ValueError("dimension mismatch")
    n = A.dim
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    if not hs:
        raise ValueError("h_list must not be empty")
    if not all(0 < h < math.inf for h in hs):     # a nan fails both comparisons
        raise ValueError(f"every step in h_list must be finite and > 0, got {list(h_list)}")
    f_mat = _to_float_matrix(s.F)
    samples = [basis_vector(i, n) for i in range(n)] + [(Fraction(1),) * n]
    # g(y) and F x once for all steps; the points (x, y) run over samples x samples
    g_vals = [float(s.g.evaluate(y)) for y in samples]
    xs = [([float(v) for v in x], [float(v) for v in s.F.apply(x)]) for x in samples]
    errors = []
    for h in hs:
        eplus = expm_float([[x * h for x in row] for row in f_mat])
        eminus = expm_float([[-x * h for x in row] for row in f_mat])
        worst = 0.0
        for xf, fx in xs:
            steps = [p - q for p, q in zip(_mat_vec_f(eplus, xf), _mat_vec_f(eminus, xf))]
            for g_val in g_vals:
                diff = [d * g_val / (2.0 * h) for d in steps]
                ref = [g_val * v for v in fx]
                err = math.sqrt(sum((d - r) ** 2 for d, r in zip(diff, ref)))
                ref_norm = math.sqrt(sum(r * r for r in ref))
                worst = max(worst, err / ref_norm if ref_norm > 0 else err)
        errors.append((h, worst))
    orders = []
    for (h1, e1), (h2, e2) in zip(errors, errors[1:]):
        if e2 <= _EXACT_FLOOR or e1 <= _EXACT_FLOOR:
            orders.append(float("inf") if e1 <= _EXACT_FLOOR else 2.0)
        else:
            orders.append(math.log(e1 / e2) / math.log(h1 / h2))
    exact = all(e <= _EXACT_FLOOR for _, e in errors)
    tol_ok = errors[-1][1] <= tol
    decay_ok = exact or all(p >= 1.5 for p in orders)
    return ExpCurveReport(tuple(errors), tuple(orders), tol, tol_ok, decay_ok, exact)
