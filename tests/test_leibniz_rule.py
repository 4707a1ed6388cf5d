"""One derivation rule behind every derivation-type check.

The package evaluates D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] in one place and
asks it for the biderivation conditions and the Leibniz identities. These
seeded tests compare every witness and residual with the conditions written
out as they read (`oracles`), on random tensors and structure constants.
The package evaluates the rule in integers, over denominators it divides
back out; algebras, matrices and tensors with denominators up to 7 check
that against the `Fraction` references.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from biderlie import (Algebra, BUILTIN_NAMES, BilinearTensor, builtin, check_kind,
                      derivation_matrices, identity_residual, is_derivation, is_left_bider,
                      is_right_bider, left_bider_witness, opposite, right_bider_witness)
from biderlie.biderivations import (basis_tensors, left_bider_bilinear_space, left_residual,
                                    right_bider_bilinear_space, right_residual)
from biderlie.linalg import Matrix

from oracles import (first_failure, fraction_combination, is_derivation_reference,
                     left_bider_sides, left_leibniz_sides, right_bider_sides,
                     right_leibniz_sides)

F = Fraction


def _sparse_entries(rng, n, density, max_den=2):
    return {(i, j, k): F(rng.choice((-2, -1, 1, 2)), rng.randint(1, max_den))
            for i in range(n) for j in range(n) for k in range(n) if rng.random() < density}


def _rescaled(A, scales):
    """A in the basis e'_i = scales[i] e_i: c'_ijk = s_i s_j c_ijk / s_k, same kind."""
    n = A.dim
    entries = {(i, j, k): scales[i] * scales[j] * A.c[i][j][k] / scales[k]
               for i in range(n) for j in range(n) for k in range(n) if A.c[i][j][k]}
    return Algebra.from_entries(f"{A.name}-rescaled", n, entries, A.kind)


def _algebras():
    rng = random.Random(11)
    out = [builtin(name) for name in BUILTIN_NAMES]
    out += [opposite(builtin(name)) for name in ("L3", "L4", "sl2")]
    # random products, most of them failing both Leibniz identities at varying triples
    out += [Algebra.from_entries(f"random{s}", 2 + s % 2, _sparse_entries(rng, 2 + s % 2, 0.25),
                                 "generic") for s in range(8)]
    # declared lie, but neither antisymmetric nor Jacobi
    out.append(Algebra.from_entries("not-lie", 3, {(0, 1, 2): F(1), (1, 0, 2): F(-1),
                                                   (0, 2, 0): F(2), (2, 2, 0): F(1)}, "lie"))
    # constants with mixed denominators up to 7: random products, and algebras
    # whose derivations and biderivations are not all zero
    rng = random.Random(7)
    out += [Algebra.from_entries(f"random-den7-{s}", 2 + s % 2,
                                 _sparse_entries(rng, 2 + s % 2, 0.3, 7), "generic")
            for s in range(4)]
    out.append(_rescaled(builtin("sl2"), (F(1, 2), F(3), F(5, 7))))
    out.append(_rescaled(builtin("heisenberg3"), (F(2, 7), F(1, 3), F(6, 5))))
    out.append(_rescaled(builtin("L4"), (F(3, 7), F(-4, 5))))
    return out


ALGEBRAS = _algebras()


def _residual(sides):
    lhs, rhs = sides
    return tuple(b - a for a, b in zip(lhs, rhs))


def _found(witness):
    return None if witness is None else (witness.triple, witness.lhs, witness.rhs,
                                         witness.residual)


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_bider_witnesses_and_residuals_match_written_out_conditions(A):
    n = A.dim
    rng = random.Random(f"tensors-{A.name}")
    tensors = [BilinearTensor.from_entries(n, _sparse_entries(rng, n, density))
               for density in (0.05, 0.1, 0.2, 0.4)]
    tensors += basis_tensors(right_bider_bilinear_space(A), n)[:3]
    tensors += basis_tensors(left_bider_bilinear_space(A), n)[:3]
    tensors += _den7_tensors(A, rng)
    for B in tensors:
        assert _found(right_bider_witness(A, B)) == first_failure(
            n, lambda i, j, k: right_bider_sides(A, B, i, j, k))
        assert _found(left_bider_witness(A, B)) == first_failure(
            n, lambda i, j, k: left_bider_sides(A, B, i, j, k))
        for i, j, k in itertools.product(range(n), repeat=3):
            assert right_residual(A, B, i, j, k) == _residual(right_bider_sides(A, B, i, j, k))
            assert left_residual(A, B, i, j, k) == _residual(left_bider_sides(A, B, i, j, k))


def _coeffs(rng, count):
    return [F(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(count)]


def _den7_tensors(A, rng):
    """Tensors with mixed denominators up to 7: random ones, combinations of the
    right and of the left basis, and such a combination plus a 1/7 entry."""
    n = A.dim
    out = [BilinearTensor.from_entries(n, _sparse_entries(rng, n, density, 7))
           for density in (0.1, 0.3)]
    for space in (right_bider_bilinear_space(A), left_bider_bilinear_space(A)):
        basis = basis_tensors(space, n)
        out.append(fraction_combination(_coeffs(rng, len(basis)), basis, BilinearTensor.zero(n)))
    ijk = tuple(rng.randrange(n) for _ in range(3))
    out.append(out[-1] + BilinearTensor.from_entries(n, {ijk: F(1, 7)}))
    return out


def _den7_matrices(A, rng):
    """Matrices with mixed denominators up to 7: combinations of the `Der` basis,
    one plus a 1/7 entry, and random ones."""
    n = A.dim
    ders = derivation_matrices(A)
    out = [fraction_combination(_coeffs(rng, len(ders)), ders, Matrix.zeros(n, n))
           for _ in range(3)]
    r, c = rng.randrange(n), rng.randrange(n)
    out.append(out[0] + Matrix([[F(1, 7) if (i, j) == (r, c) else 0 for j in range(n)]
                                for i in range(n)]))
    out += [Matrix([[F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 7)) for _ in range(n)]
                    for _ in range(n)]) for _ in range(3)]
    return out


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_integer_predicates_match_fraction_references(A):
    n = A.dim
    rng = random.Random(f"predicates-{A.name}")
    for m in _den7_matrices(A, rng):
        assert is_derivation(A, m) == is_derivation_reference(A, m)
    for B in _den7_tensors(A, rng):
        assert is_right_bider(A, B) == (
            first_failure(n, lambda i, j, k: right_bider_sides(A, B, i, j, k)) is None)
        assert is_left_bider(A, B) == (
            first_failure(n, lambda i, j, k: left_bider_sides(A, B, i, j, k)) is None)


def test_integer_predicate_corpus_reaches_both_outcomes():
    # on the algebras with non-integer constants, each predicate both holds and fails
    outcomes = {"der": set(), "right": set(), "left": set()}
    for A in ALGEBRAS:
        if all(x.denominator == 1 for plane in A.c for row in plane for x in row):
            continue
        rng = random.Random(f"predicates-{A.name}")
        outcomes["der"] |= {is_derivation(A, m) for m in _den7_matrices(A, rng)}
        tensors = _den7_tensors(A, rng)
        outcomes["right"] |= {is_right_bider(A, B) for B in tensors}
        outcomes["left"] |= {is_left_bider(A, B) for B in tensors}
    assert outcomes == dict.fromkeys(outcomes, {True, False})


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_leibniz_witnesses_and_residuals_match_written_out_identities(A):
    n = A.dim
    for kind, sides, bider_witness in (("leibniz-left", left_leibniz_sides, left_bider_witness),
                                       ("leibniz-right", right_leibniz_sides, right_bider_witness)):
        expected = first_failure(n, lambda i, j, k: sides(A, i, j, k))
        report = check_kind(A, kind)
        assert report.ok == (expected is None)
        assert _found(report.witness) == expected
        # a Leibniz kind asks whether the product is a biderivation on that side
        as_bider = bider_witness(A, A.product)
        assert report.witness == (as_bider and replace(as_bider, identity=kind))
        for triple in itertools.product(range(n), repeat=3):
            assert identity_residual(A, kind, triple) == _residual(sides(A, *triple))


def test_corpus_reaches_passing_and_failing_witnesses():
    # the comparisons above mean little unless both outcomes occur, at several triples
    for kind in ("leibniz-left", "leibniz-right"):
        reports = [check_kind(A, kind) for A in ALGEBRAS]
        assert any(r.ok for r in reports)
        assert len({r.witness.triple for r in reports if not r.ok}) >= 3
    A = builtin("heisenberg3")
    rng = random.Random("corpus")
    found = [right_bider_witness(A, BilinearTensor.from_entries(3, _sparse_entries(rng, 3, 0.1)))
             for _ in range(10)]
    assert any(w is None for w in found)
    assert len({w.triple for w in found if w is not None}) >= 2
