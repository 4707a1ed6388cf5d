"""One derivation rule behind every derivation-type check.

The package evaluates D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] in one place and
asks it for the biderivation conditions and the Leibniz identities. These
seeded tests compare every witness and residual with the conditions written
out as they read (`oracles`), on random tensors and structure constants.
"""

import itertools
import random
from fractions import Fraction

import pytest

from biderlie import (Algebra, BUILTIN_NAMES, BilinearTensor, builtin, check_kind,
                      identity_residual, left_bider_witness, opposite, right_bider_witness)
from biderlie.biderivations import (basis_tensors, left_bider_bilinear_space, left_residual,
                                    right_bider_bilinear_space, right_residual)

from oracles import (first_failure, left_bider_sides, left_leibniz_sides, right_bider_sides,
                     right_leibniz_sides)

F = Fraction


def _sparse_entries(rng, n, density):
    return {(i, j, k): F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            for i in range(n) for j in range(n) for k in range(n) if rng.random() < density}


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
    for B in tensors:
        assert _found(right_bider_witness(A, B)) == first_failure(
            n, lambda i, j, k: right_bider_sides(A, B, i, j, k))
        assert _found(left_bider_witness(A, B)) == first_failure(
            n, lambda i, j, k: left_bider_sides(A, B, i, j, k))
        for i, j, k in itertools.product(range(n), repeat=3):
            assert right_residual(A, B, i, j, k) == _residual(right_bider_sides(A, B, i, j, k))
            assert left_residual(A, B, i, j, k) == _residual(left_bider_sides(A, B, i, j, k))


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_leibniz_witnesses_and_residuals_match_written_out_identities(A):
    n = A.dim
    for kind, sides in (("leibniz-left", left_leibniz_sides),
                        ("leibniz-right", right_leibniz_sides)):
        expected = first_failure(n, lambda i, j, k: sides(A, i, j, k))
        report = check_kind(A, kind)
        assert report.ok == (expected is None)
        assert _found(report.witness) == expected
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
