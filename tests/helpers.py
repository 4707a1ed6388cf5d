"""Shared test helpers.

Kept out of `conftest.py`: with `bench/tests` collected in the same run, a
plain `import conftest` may resolve to the other directory's conftest.
"""

from fractions import Fraction


def random_rational_vector(rng, n, span=3):
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(n))
