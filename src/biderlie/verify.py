"""Per-algebra verification suites behind the `verify` CLI command.

Each suite re-derives one family of identities the toolkit is built on and
returns deterministic CheckResults: the declared kind, derivation algebra
facts, the biderivation space structure, symmetric/skew interplay, the
bracket Lie-algebra laws, and the scalar-times-derivation family. Runs are
seeded and reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebras import Algebra, check_kind
from .bilinear import BilinearTensor, half_decomposition, random_tensor, skew_symmetrize, symmetrize
from .biderivations import (basis_tensors, bider_space, is_bider, is_left_bider,
                            is_right_bider, left_bider_bilinear_space,
                            right_bider_bilinear_space, spaces_intersection)
from .brackets import random_fraction, verify_lie_algebra, verify_transpose_interplay
from .derivations import commutator, derivation_matrices, derivation_space, is_derivation
from .linalg import Matrix, canonicalize, intersect
from .report import CheckResult, check, skip, witness_from_triple
from .scalar_maps import (ScalarPoly, ScalarTimesDerivation, bracket_matches_poly_form,
                          exp_curve_check, iff_derivation_check)

_ZERO = Fraction(0)


def kind_suite(A: Algebra) -> list[CheckResult]:
    rep = check_kind(A)
    witness = None if rep.ok else witness_from_triple(rep.witness)
    return [check("kind", f"declared-kind-{rep.kind}", rep.ok, witness)]


def derivation_suite(A: Algebra) -> list[CheckResult]:
    suite = "derivations"
    ders = derivation_matrices(A)
    space = derivation_space(A)
    basis_ok = all(is_derivation(A, d) for d in ders)
    closure_ok = True
    jacobi_ok = True
    for d1 in ders:
        for d2 in ders:
            if not space.contains(commutator(d1, d2).to_col_major()):
                closure_ok = False
                break
        if not closure_ok:
            break
    for d1 in ders:
        for d2 in ders:
            c12 = commutator(d1, d2)
            for d3 in ders:
                j = (commutator(d1, commutator(d2, d3))
                     + commutator(d2, commutator(d3, d1))
                     + commutator(d3, c12))
                if not j.is_zero():
                    jacobi_ok = False
                    break
            if not jacobi_ok:
                break
        if not jacobi_ok:
            break
    return [
        check(suite, "basis-satisfies-derivation-rule", basis_ok),
        check(suite, "commutator-closure", closure_ok),
        check(suite, "commutator-jacobi", jacobi_ok),
    ]


def space_suite(A: Algebra) -> list[CheckResult]:
    suite = "spaces"
    n = A.dim
    der = derivation_space(A)
    ders = derivation_matrices(A)
    right = right_bider_bilinear_space(A)
    left = left_bider_bilinear_space(A)
    both = bider_space(A)

    def factor_ok(space, side: str) -> bool:
        # a left space is checked as the right factorization of the transposes
        flip = BilinearTensor.transpose if side == "left" else (lambda t: t)
        if space.dim != n * der.dim:
            return False
        for flat in space.vectors:
            tensor = flip(BilinearTensor.from_flat(flat, n))
            if not all(der.contains(tensor.column_map(j).to_col_major()) for j in range(n)):
                return False
        zero = Matrix.zeros(n, n)
        for D in ders:
            for j in range(n):
                # the tensor sending (x, e_j) to D x and (x, e_k) to 0 otherwise
                maps = [D if k == j else zero for k in range(n)]
                if not space.contains(flip(BilinearTensor.from_column_maps(maps)).flatten()):
                    return False
        return True

    right_members_ok = all(is_right_bider(A, t) for t in basis_tensors(right, n))
    left_members_ok = all(is_left_bider(A, t) for t in basis_tensors(left, n))
    both_members_ok = all(is_bider(A, t) for t in basis_tensors(both, n))
    return [
        check(suite, "right-space-is-derivation-valued", factor_ok(right, "right")),
        check(suite, "left-space-is-derivation-valued", factor_ok(left, "left")),
        check(suite, "right-space-members-pass-predicate", right_members_ok),
        check(suite, "left-space-members-pass-predicate", left_members_ok),
        check(suite, "biderivation-space-members-pass-both", both_members_ok),
        check(suite, "biderivation-space-is-intersection", both == spaces_intersection(A)),
    ]


def _random_member(rng: random.Random, tensors: list[BilinearTensor], n: int) -> BilinearTensor:
    acc = BilinearTensor.zero(n)
    for t in tensors:
        f = random_fraction(rng)
        if f:
            acc = acc + f * t
    return acc


def _symmetric_tensor_space(n: int):
    vecs = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                t = BilinearTensor.from_entries(n, {(i, j, k): Fraction(1)})
                if i != j:
                    t = t + BilinearTensor.from_entries(n, {(j, i, k): Fraction(1)})
                vecs.append(t.flatten())
    return canonicalize(vecs, n ** 3)


def _skew_tensor_space(n: int):
    vecs = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                t = (BilinearTensor.from_entries(n, {(i, j, k): Fraction(1)})
                     - BilinearTensor.from_entries(n, {(j, i, k): Fraction(1)}))
                vecs.append(t.flatten())
    return canonicalize(vecs, n ** 3)


def symmetry_suite(A: Algebra, samples: int = 25, seed: int = 0) -> list[CheckResult]:
    """Symmetrization identities, on the spaces where each one actually lives.

    The doubles B +/- B^t of a two-sided biderivation are biderivations;
    for a merely right biderivation the doubles can leave the right space,
    so the one-sided statement is the conditional: a symmetric or skew
    tensor that passes the right predicate also passes the left one.
    """
    suite = "symmetric-parts"
    n = A.dim
    rng = random.Random(seed)
    decomposition_ok = True
    twice_transpose_ok = True
    for _ in range(samples):
        B = random_tensor(rng, n)
        sym, skw = half_decomposition(B)
        if not (sym + skw == B and (2 * sym).is_symmetric() and (2 * skw).is_skew()):
            decomposition_ok = False
        if symmetrize(B) - skew_symmetrize(B) != 2 * B.transpose():
            twice_transpose_ok = False
    bider_tensors = basis_tensors(bider_space(A), n)
    doubles_are_biders = True
    for _ in range(samples):
        B = _random_member(rng, bider_tensors, n)
        sb, ab = symmetrize(B), skew_symmetrize(B)
        if not (sb.is_symmetric() and ab.is_skew() and is_bider(A, sb) and is_bider(A, ab)):
            doubles_are_biders = False
    right = right_bider_bilinear_space(A)
    right_tensors = basis_tensors(right, n)
    sym_members = basis_tensors(intersect(right, _symmetric_tensor_space(n)), n)
    skew_members = basis_tensors(intersect(right, _skew_tensor_space(n)), n)
    onesided_ok = all(is_left_bider(A, t) for t in sym_members + skew_members)
    for _ in range(samples):
        for pool in (sym_members, skew_members):
            B = _random_member(rng, pool, n)
            if not is_left_bider(A, B):
                onesided_ok = False
        # conditional form on doubles of arbitrary right members
        B = _random_member(rng, right_tensors, n)
        for D in (symmetrize(B), skew_symmetrize(B)):
            if is_right_bider(A, D) and not is_left_bider(A, D):
                onesided_ok = False
    closure_ok = all(
        is_right_bider(A, _random_member(rng, right_tensors, n)) for _ in range(samples)
    )
    return [
        check(suite, "half-sum-decomposition", decomposition_ok),
        check(suite, "sym-minus-skew-is-twice-transpose", twice_transpose_ok),
        check(suite, "doubles-of-biderivations-are-biderivations", doubles_are_biders),
        check(suite, "symmetric-or-skew-right-is-left", onesided_ok),
        check(suite, "right-space-closed-under-combinations", closure_ok),
    ]


def _random_scalar_poly(rng: random.Random, n: int, max_degree: int = 2) -> ScalarPoly:
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        alpha = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            alpha[rng.randrange(n)] += 1
        coeffs[tuple(alpha)] = coeffs.get(tuple(alpha), _ZERO) + random_fraction(rng)
    return ScalarPoly(n, coeffs)


def _random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])


def scalar_suite(A: Algebra, seed: int = 0, sweep_samples: int = 100) -> list[CheckResult]:
    suite = "scalar-class"
    n = A.dim
    rng = random.Random(seed)
    ders = derivation_matrices(A)
    equivalence_ok = True
    non_derivation_hits = 0
    for i in range(sweep_samples):
        g = _random_scalar_poly(rng, n)
        while g.is_zero():
            g = _random_scalar_poly(rng, n)
        if i % 2 == 0 and ders:
            F = Matrix.zeros(n, n)
            for d in ders:
                f = random_fraction(rng)
                if f:
                    F = F + f * d
        else:
            F = _random_matrix(rng, n)
        if not is_derivation(A, F):
            non_derivation_hits += 1
        if not iff_derivation_check(A, ScalarTimesDerivation(g, F)):
            equivalence_ok = False
    bracket_ok = True
    for _ in range(25):
        s1 = ScalarTimesDerivation(_random_scalar_poly(rng, n), _random_matrix(rng, n))
        s2 = ScalarTimesDerivation(_random_scalar_poly(rng, n), _random_matrix(rng, n))
        if not bracket_matches_poly_form(s1, s2):
            bracket_ok = False
    results = [
        check(suite, "derivation-equivalence-sweep", equivalence_ok,
              None if equivalence_ok else {"non_derivation_samples": non_derivation_hits}),
        check(suite, "bracket-stays-in-family", bracket_ok),
    ]
    if A.kind != "lie":
        results.append(skip(suite, "one-parameter-curve", "needs a Lie algebra"))
        return results
    if not ders:
        results.append(skip(suite, "one-parameter-curve", "derivation algebra is trivial"))
        return results
    F = next((d for d in ders if not (d * d * d).is_zero()), ders[0])
    g = ScalarPoly.coordinate(n, 1 if n > 1 else 0)
    rep = exp_curve_check(A, ScalarTimesDerivation(g, F))
    witness = None if rep.ok else {
        "errors": [[f"{h:.0e}", f"{e:.3e}"] for h, e in rep.errors],
        "orders": [f"{p:.2f}" for p in rep.orders],
    }
    results.append(check(suite, "one-parameter-curve", rep.ok, witness))
    return results


def run_all(A: Algebra, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Every verification suite for one algebra, in a fixed order.

    A failed kind check short-circuits the rest: the solvers are only
    specified for algebras whose declared identity actually holds.
    """
    results = list(kind_suite(A))
    if any(r.status == "fail" for r in results):
        results.append(skip("verify", "remaining-suites",
                            "declared kind does not hold; downstream suites need it"))
        return results
    results += derivation_suite(A)
    results += space_suite(A)
    results += symmetry_suite(A, samples=samples, seed=seed)
    results += verify_lie_algebra(A, "right", samples=samples, seed=seed)
    results += verify_lie_algebra(A, "left", samples=samples, seed=seed)
    results += verify_transpose_interplay(A)
    results += scalar_suite(A, seed=seed)
    return results
