"""Shared test helpers.

Kept out of `conftest.py`: with `bench/tests` collected in the same run, a
plain `import conftest` may resolve to the other directory's conftest.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path


def random_rational_vector(rng, n, span=3):
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(n))


def bench_inputs():
    """The benchmark's input module, `bench/inputs.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def spaces_scale_dense(seed):
    """The dense heisenberg5 and generic4 of the spaces-scale benchmark at this seed,
    drawn from one rng in that order."""
    inputs, rng = bench_inputs(), random.Random(seed)
    return inputs.dense_heisenberg5(rng), inputs.generic_algebra(rng, 4)
