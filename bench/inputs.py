"""Seed-deterministic inputs for the benchmark workloads.

Everything here is drawn from a `random.Random` the caller seeds; the
library only ever receives the finished `Algebra` and map objects, or the
files written from them. Drawn inputs keep their size across seeds (sign
changes of fixed dense algebras, fixed term counts of the maps), so that
seeds change the data a run works on without changing how much work it is.
"""

from __future__ import annotations

import random
from fractions import Fraction

from biderlie.algebras import Algebra, bracket, check_kind
from biderlie.brackets import PolyLeftMap, PolyRightMap
from biderlie.linalg import Matrix, rref


def heisenberg(n: int) -> Algebra:
    """heisenberg(2k+1): [e_i, e_{k+i}] = e_{2k+1} for i = 1..k."""
    if n < 3 or n % 2 == 0:
        raise ValueError("heisenberg(n) needs an odd n >= 3")
    k = n // 2
    one = Fraction(1)
    entries = {}
    for i in range(k):
        entries[(i, k + i, n - 1)] = one
        entries[(k + i, i, n - 1)] = -one
    return Algebra.from_entries(f"heisenberg{n}", n, entries, "lie")


def exact_inverse(P: Matrix) -> Matrix:
    """Inverse of a full-rank matrix by elimination on [P | I]; raises if singular."""
    n = P.rows
    _, rank = rref(P)
    if P.rows != P.cols or rank != n:
        raise ValueError("basis change must be square and of full rank")
    aug = Matrix([list(P.data[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)])
    red, _ = rref(aug)
    inv = Matrix([row[n:] for row in red.data])
    if P * inv != Matrix.identity(n):
        raise ValueError("inverse check failed")
    return inv


def basis_change(A: Algebra, P: Matrix, name: str) -> tuple[Algebra, Matrix]:
    """A in the basis f_i = P e_i, [f_i, f_j] = sum_k c'_ijk f_k; returns it and P^-1.

    Checks that P has full rank, inverts it exactly, and checks that the
    transformed constants still satisfy the declared kind.
    """
    P_inv = exact_inverse(P)
    n = A.dim
    cols = [P.col(i) for i in range(n)]
    c = [[P_inv.apply(bracket(A, cols[i], cols[j])) for j in range(n)] for i in range(n)]
    B = Algebra(name, n, c, A.kind)
    if not check_kind(B).ok:
        raise ValueError("basis change broke the declared kind")
    return B, P_inv


def sign_change(rng: random.Random, n: int) -> Matrix:
    """A drawn diagonal basis change e_i -> +-e_i.

    It scales the rows and columns of every derivation and biderivation
    system by signs only, so the elimination takes the same steps on
    entries of the same size: a drawn input whose cost does not depend on
    the seed.
    """
    return Matrix([[rng.choice((-1, 1)) if r == c else 0 for c in range(n)] for r in range(n)])


# Unimodular, and under it heisenberg5's products hit 3 coordinates in 7 of
# the 10 pairs i < j with constants in -2..2: dense systems whose entries
# grow during elimination.
DENSE_HEISENBERG5_BASIS = Matrix([[1, 0, -1, 0, -1], [-1, 1, 1, 0, 2], [-1, -1, 2, 0, 1],
                                  [0, -1, 1, 1, 0], [-1, 1, 2, 0, 4]])


def dense_heisenberg5(rng: random.Random) -> Algebra:
    """heisenberg5 in the basis DENSE_HEISENBERG5_BASIS times a drawn sign change."""
    P = DENSE_HEISENBERG5_BASIS * sign_change(rng, 5)
    return basis_change(heisenberg(5), P, "heisenberg5-changed")[0]


def generic_algebra(rng: random.Random, n: int) -> Algebra:
    """A dense algebra of kind generic, under a drawn sign change.

    The fixed algebra behind it has every structure constant +1 or -1.
    Drawing all n^3 signs instead would change the elimination cost by up
    to a factor of two from seed to seed.
    """
    base = random.Random(f"generic{n}")
    c = [[[Fraction(base.choice((-1, 1))) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    D = sign_change(rng, n)
    return basis_change(Algebra(f"generic{n}", n, c, "generic"), D, f"generic{n}")[0]


def _monomials(rng: random.Random, n: int, count: int, max_degree: int) -> list[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < count:
        alpha = [0] * n
        for _ in range(rng.randint(1, max_degree)):
            alpha[rng.randrange(n)] += 1
        a = tuple(alpha)
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


_COEFFS = tuple(Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2))


def poly_map(rng: random.Random, derivations: list[Matrix], n: int, terms: int,
             left: bool, max_degree: int = 3):
    """A poly right (or left) map with `terms` distinct monomials of degree 1..max_degree.

    Each coefficient matrix is a combination of two distinct derivation
    basis matrices with nonzero coefficients, so the map is a right (or
    left) biderivation.
    """
    out = {}
    for alpha in _monomials(rng, n, terms, max_degree):
        d1, d2 = rng.sample(derivations, 2)
        out[alpha] = rng.choice(_COEFFS) * d1 + rng.choice(_COEFFS) * d2
    return (PolyLeftMap if left else PolyRightMap)(n, out)
