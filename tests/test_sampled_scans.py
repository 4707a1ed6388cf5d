"""The per-block Leibniz scan and the sampled verify suites that stack their samples into it.

`symmetry_suite`, `scalar_suite` and both sides of `verify_lie_algebra`
decide every sample through `algebras.leibniz_sides`. The mutants below
decide each block of a stack from that block's own integers alone, so a
scan of one sample at a time and a scan of every sample at once must give
the same verdicts, and the pinned table must not move however the suites
stack their samples, or however many samples one scan takes.
"""

import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from biderlie import Algebra, BilinearTensor, algebras, report
import biderlie.brackets as brackets_module
import biderlie.verify as verify_module
from biderlie.algebras import bider_scan, builtin, failing_stacks
from biderlie.biderivations import bider_space, right_bider_bilinear_space
from biderlie.bilinear import half_decomposition, skew_symmetrize
from biderlie.brackets import verify_lie_algebra
from biderlie.derivations import derivation_matrices
from biderlie.linalg import Matrix, Ratio
from biderlie.verify import _transpose_part, derivation_suite, scalar_suite, symmetry_suite

from oracles import (derives_reference, fraction_combination, jacobi_ok_reference,
                     leibniz_sides_reference)
from test_brackets import _LIE_MUTANTS, _LIE_PINNED, _on_maps

_SIDES = algebras.leibniz_sides
_MUTANT_NAMES = ("heisenberg3", "L2", "L3", "L4")


def _without_right_term(A, images, i, j):
    # D[e_i, e_j] against [D e_i, e_j] alone: the [e_i, D e_j] term is dropped
    n, rows = A.dim, A.product.matrix.sparse
    lhs = [0] * len(images[i])
    rhs = [0] * len(lhs)
    for p, f in rows[i * n + j]:
        for l, x in enumerate(images[p]):
            lhs[l] += f * x
    for base in range(0, len(lhs), n):
        for f, r in zip(images[i][base:base + n], range(j, n * n, n)):
            for l, x in rows[r]:
                rhs[base + l] += f * x
    return lhs, rhs


def _odd_first_entry(A, images, i, j):
    # at the pair (0, 0), rhs + 1 in every block whose first image entry is odd
    lhs, rhs = _SIDES(A, images, i, j)
    if (i, j) == (0, 0):
        for b in range(0, len(rhs), A.dim):
            if images[0][b] % 2:
                rhs[b] += 1
    return lhs, rhs


_LEIBNIZ_MUTANTS = {"without-right-term": _without_right_term, "odd-first-entry": _odd_first_entry}


def _suite_calls(A):
    return {"symmetric-parts": lambda: symmetry_suite(A),
            "scalar-class": lambda: scalar_suite(A),
            "bracket-right": lambda: verify_lie_algebra(A, "right"),
            "bracket-left": lambda: verify_lie_algebra(A, "left")}


def _outcome(call):
    # the (identity, status, witness) list of a suite, or the exception it raises
    try:
        return [(r.identity, r.status, r.witness) for r in call()]
    except (ValueError, RuntimeError) as e:
        return (type(e).__name__, str(e))


def _listed(identities, statuses, **witnesses):
    # (identity, status, witness) per identity; a witness is given by identity index
    return [(identity, status, witnesses.get(f"w{k}"))
            for k, (identity, status) in enumerate(zip(identities, statuses))]


_SYMMETRY = ("half-sum-decomposition", "sym-minus-skew-is-twice-transpose",
             "doubles-of-biderivations-are-biderivations", "symmetric-or-skew-right-is-left",
             "right-space-closed-under-combinations")
_SCALAR = ("derivation-equivalence-sweep", "bracket-stays-in-family", "one-parameter-curve")
_LAWS = ("closure", "bilinearity", "alternativity", "jacobi")
_NOT_LIE = {"reason": "needs a Lie algebra"}
_SYMMETRY_FAILS = _listed(_SYMMETRY, ("pass", "pass", "fail", "fail", "fail"))
_GENERATOR = ("RuntimeError", "sample generator produced a non-biderivation")
_CURVE_GUARD = ("ValueError", "F must be a derivation")
_LIE_PASSES = _listed(_LAWS, ("pass",) * 4)
# each suite's outcome under each mutant at its default sample counts and seed 0,
# recorded while the suites asked one predicate per sample
_LEIBNIZ_PINNED = {
    "without-right-term": {
        "heisenberg3": {"symmetric-parts": _SYMMETRY_FAILS, "scalar-class": _CURVE_GUARD,
                        "bracket-right": _GENERATOR, "bracket-left": _GENERATOR},
        "L2": {"symmetric-parts": _SYMMETRY_FAILS, "scalar-class": _CURVE_GUARD,
               "bracket-right": _GENERATOR, "bracket-left": _GENERATOR},
        "L3": {"symmetric-parts": _SYMMETRY_FAILS,
               "scalar-class": _listed(_SCALAR, ("pass", "pass", "skip"), w2=_NOT_LIE),
               "bracket-right": _GENERATOR, "bracket-left": _GENERATOR},
        "L4": {"symmetric-parts": _SYMMETRY_FAILS,
               "scalar-class": _listed(_SCALAR, ("pass", "pass", "skip"), w2=_NOT_LIE),
               "bracket-right": _GENERATOR, "bracket-left": _GENERATOR},
    },
    "odd-first-entry": {
        "heisenberg3": {"symmetric-parts": _SYMMETRY_FAILS, "scalar-class": _CURVE_GUARD,
                        "bracket-right": _GENERATOR, "bracket-left": _GENERATOR},
        "L2": {"symmetric-parts": _listed(_SYMMETRY, ("pass",) * 5),
               "scalar-class": _listed(_SCALAR, ("pass",) * 3),
               "bracket-right": _LIE_PASSES, "bracket-left": _LIE_PASSES},
        "L3": {"symmetric-parts": _listed(_SYMMETRY, ("pass",) * 5),
               "scalar-class": _listed(_SCALAR, ("pass", "pass", "skip"), w2=_NOT_LIE),
               "bracket-right": _LIE_PASSES, "bracket-left": _LIE_PASSES},
        "L4": {"symmetric-parts": _SYMMETRY_FAILS,
               "scalar-class": _listed(_SCALAR, ("fail", "pass", "skip"),
                                       w0={"non_derivation_samples": 80}, w2=_NOT_LIE),
               "bracket-right": _GENERATOR, "bracket-left": _GENERATOR},
    },
}


@pytest.mark.parametrize("mutant", list(_LEIBNIZ_MUTANTS))
@pytest.mark.parametrize("name", _MUTANT_NAMES)
@pytest.mark.parametrize("chunk", [report.SCAN_CHUNK, 7])
def test_sampled_suites_under_broken_leibniz_scans(monkeypatch, mutant, name, chunk):
    # a run of 7 samples per scan puts scan boundaries inside every sampled check
    monkeypatch.setattr(report, "SCAN_CHUNK", chunk)
    monkeypatch.setattr(algebras, "leibniz_sides", _LEIBNIZ_MUTANTS[mutant])
    got = {suite: _outcome(call) for suite, call in _suite_calls(builtin(name)).items()}
    assert got == _LEIBNIZ_PINNED[mutant][name]


# faults in the two symmetric-parts checks that sample no algebra: each fails its own
# check alone, on every algebra
_SYMMETRY_MUTANTS = {
    "half-parts-swapped": ("half_decomposition", lambda B: half_decomposition(B)[::-1]),
    "skew-doubled": ("skew_symmetrize", lambda B: 2 * skew_symmetrize(B)),
}
_SYMMETRY_PINNED = {
    "half-parts-swapped": _listed(_SYMMETRY, ("fail",) + ("pass",) * 4),
    "skew-doubled": _listed(_SYMMETRY, ("pass", "fail") + ("pass",) * 3),
}


@pytest.mark.parametrize("mutant", list(_SYMMETRY_MUTANTS))
@pytest.mark.parametrize("name", ["heisenberg3", "L2", "L3"])
def test_symmetry_suite_under_broken_half_parts(monkeypatch, mutant, name):
    # no broken Leibniz scan reaches the first two checks: they pass in every table above
    passes = _listed(_SYMMETRY[:2], ("pass", "pass"))
    assert all(table[A]["symmetric-parts"][:2] == passes
               for table in _LEIBNIZ_PINNED.values() for A in table)
    monkeypatch.setattr(verify_module, *_SYMMETRY_MUTANTS[mutant])
    assert _outcome(lambda: symmetry_suite(builtin(name))) == _SYMMETRY_PINNED[mutant]


# a random member that is not one: B(e1, e1) = e1 added to each lift
_LIFT_MUTANTS = {
    "e1e1-added": lambda member: lambda rng, space, n: (
        member(rng, space, n) + BilinearTensor.from_entries(n, {(0, 0, 0): F(1)})),
}
_LIFT_PINNED = {
    "e1e1-added": {"heisenberg3": _SYMMETRY_FAILS, "L2": _SYMMETRY_FAILS, "L3": _SYMMETRY_FAILS},
}


@pytest.mark.parametrize("mutant", list(_LIFT_MUTANTS))
@pytest.mark.parametrize("name", ["heisenberg3", "L2", "L3"])
def test_symmetry_suite_under_broken_lifts(monkeypatch, mutant, name):
    monkeypatch.setattr(verify_module, "_random_member",
                        _LIFT_MUTANTS[mutant](verify_module._random_member))
    assert _outcome(lambda: symmetry_suite(builtin(name))) == _LIFT_PINNED[mutant][name]


@pytest.mark.parametrize("name", _MUTANT_NAMES)
def test_lie_law_witnesses_do_not_move_with_the_scan_length(monkeypatch, name):
    # closure is decided per scan and its witness offset into the samples: the pinned
    # first failing samples (up to 19) lie in the third run of 7
    A = builtin(name)
    monkeypatch.setattr(report, "SCAN_CHUNK", 7)
    monkeypatch.setattr(brackets_module, "_bracket_terms",
                        _on_maps(_LIE_MUTANTS["spurious-terms"], A.dim))
    for side in ("right", "left"):
        got = [(r.status, r.witness) for r in verify_lie_algebra(A, side)]
        assert got == _LIE_PINNED["spurious-terms"][name][side]


# --- the per-block verdict against the per-block reference ---------------------

def _scan_algebras():
    # dims 1-4; no abelian one, whose stacks cannot fail
    return [builtin(name) for name in ("L2", "L3", "L4", "heisenberg3", "sl2")] + [
        Algebra.from_entries("unit-1", 1, {(0, 0, 0): F(1, 2)}, "generic"),
        Algebra.from_entries("den-4", 4, {(0, 1, 3): F(2, 3), (1, 0, 3): F(-2, 3),
                                          (2, 3, 3): F(1, 5), (3, 2, 3): F(-1, 5)}, "lie")]


def _blocks(A, rng, count):
    """count matrices for a stack, each over its own scale: rational sums of the Der basis
    (the first is zero) and, about one in three, a random matrix."""
    n = A.dim
    ders = derivation_matrices(A)
    out = [Matrix.zeros(n, n)]
    while len(out) < count:
        if rng.random() < 0.35 or not ders:
            out.append(Matrix([[F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(n)]
                               for _ in range(n)]))
        else:
            out.append(sum((F(rng.randint(-3, 3), rng.choice((1, 2, 5))) * d for d in ders),
                           Matrix.zeros(n, n)))
    return out


def _bad(A, m):
    n = A.dim
    return not derives_reference(A, [list(m.ints[p::n]) for p in range(n)])


def _non_derivation(A, rng):
    return next(m for m in _blocks(A, rng, 50) if _bad(A, m))


@pytest.mark.parametrize("A", _scan_algebras(), ids=lambda A: A.name)
def test_failing_stacks_match_the_per_block_reference(A):
    rng = random.Random(A.name)
    n = A.dim
    assert failing_stacks(A, []) == [] and failing_stacks(A, [[]]) == []
    ok = [m for m in _blocks(A, rng, 40) if not _bad(A, m)][:6]
    bad = [_non_derivation(A, rng) for _ in range(3)]
    # failing blocks first, in the middle, last, side by side and all at once
    layouts = [ok, bad[:1] + ok, ok[:3] + bad[:1] + ok[3:], ok + bad[:1], bad[:2] + ok,
               ok[:2] + bad + ok[2:], bad, bad[:1] + ok[:2] + bad[1:2] + ok[2:] + bad[2:]]
    layouts += [_blocks(A, rng, 9) for _ in range(4)]
    for blocks in layouts:
        want = [b for b, m in enumerate(blocks) if _bad(A, m)]
        assert failing_stacks(A, [m.ints for m in blocks]) == want
        # the same blocks in runs of two and three, each run one tall list over one scale
        for size in (2, 3):
            runs = [blocks[s:s + size] for s in range(0, len(blocks), size)]
            talls = []
            for run in runs:
                den = math.lcm(*(m.den for m in run)) * rng.choice((1, 2, 3))
                talls.append([x * den // m.den for m in run for x in m.ints])
            assert failing_stacks(A, talls) == sorted({b // size for b in want})


@pytest.mark.parametrize("A", _scan_algebras(), ids=lambda A: A.name)
def test_bider_scan_names_each_failing_tensor(A):
    rng = random.Random(A.name + "tensors")
    n = A.dim
    for _ in range(4):
        maps = [_blocks(A, rng, n + 1)[1:] for _ in range(5)]
        tensors = [BilinearTensor.from_column_maps(ms) for ms in maps]
        ints = [x for t in tensors for x in t.matrix.ints]
        want = [t for t, ms in enumerate(maps) if any(_bad(A, m) for m in ms)]
        assert bider_scan(A, ints, "right") == want
        assert bider_scan(A, [x for t in tensors for x in t.transpose().matrix.ints],
                          "left") == want


@pytest.mark.parametrize("A", _scan_algebras() + [builtin("abelian(3)")], ids=lambda A: A.name)
def test_leibniz_sides_match_the_per_block_reference(A):
    # the very lists, not just their verdicts: the Leibniz mutants above and every scan read them
    rng = random.Random(A.name + "sides")
    n = A.dim
    for count in (0, 1, 301):
        blocks = _blocks(A, rng, count)[:count]
        images = [[x for m in blocks for x in m.ints[p::n]] for p in range(n)]
        for given in (images, tuple(tuple(v) for v in images)):
            for i in range(n):
                for j in range(n):
                    got = algebras.leibniz_sides(A, given, i, j)
                    assert type(got[0]) is list and type(got[1]) is list
                    assert got == leibniz_sides_reference(A, given, i, j)


# --- memory does not grow with the sample count ---------------------------------

def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_suites_hold_one_run_of_samples_at_a_time():
    A = builtin("L2")
    for suite in (lambda k: symmetry_suite(A, samples=k), lambda k: scalar_suite(A, sweep_samples=k)):
        suite(1)  # warm the caches of imports and views before measuring
        assert _peak(lambda: suite(2000)) <= 2 * _peak(lambda: suite(200))


# --- Jacobi by rotation class ----------------------------------------------------

_SWEEP = ("abelian(2)", "L2", "heisenberg3", "L3", "L4", "abelian(3)", "sl2")


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("name", _SWEEP)
def test_jacobi_by_rotation_class_matches_every_ordered_triple(monkeypatch, name, signed):
    # without its sign, each commutator is an anticommutator and the sums need not vanish
    if not signed:
        add = verify_module.add_product
        monkeypatch.setattr(verify_module, "add_product",
                            lambda out, a, b, width, sign=1: add(out, a, b, width))
    A = builtin(name)
    [status] = [r.status for r in derivation_suite(A) if r.identity == "commutator-jacobi"]
    assert status == ("pass" if jacobi_ok_reference(A) else "fail")
    if signed:
        assert status == "pass"


def test_lift_reads_unreduced_ratios_as_their_fractions():
    # the sampled suites draw coefficients as (p, q) pairs and never reduce them; a lift
    # is the row of them times the stacked matrices
    rng = random.Random(3)
    mats = [Matrix([[F(rng.randint(-3, 3), rng.choice((1, 2, 6))) for _ in range(3)]
                    for _ in range(2)]) for _ in range(4)]
    stack = Matrix._from_flat(4, 6, [x for m in mats for row in m.data for x in row])
    for ratios in ([Ratio(2, 2), Ratio(0, 3), Ratio(-4, 6), Ratio(3, 1)],
                   [Ratio(0, 1)] * 4, [Ratio(6, 4), Ratio(-2, 2), Ratio(1, 3), Ratio(0, 2)]):
        got = Matrix._from_flat(1, 4, ratios) * stack
        want = Matrix._from_flat(1, 4, [F(*r) for r in ratios]) * stack
        total = sum((F(*r) * m for r, m in zip(ratios, mats)), Matrix.zeros(2, 3))
        assert got == want == Matrix._of(1, 6, total.den, total.ints)


def _sampled_spaces(A):
    right = right_bider_bilinear_space(A)
    return {"right": right, "two-sided": bider_space(A),
            "symmetric": _transpose_part(right, A.dim, 1), "skew": _transpose_part(right, A.dim, -1)}


@pytest.mark.parametrize("name", ["heisenberg3", "L3", "sl2"])
def test_random_member_is_the_lift_of_its_drawn_coordinates(name):
    # sum_u F(p, q) basis_u over (p, q) drawn as randint draws them from a clone of the
    # generator, which ends where the lift leaves it; L3's Der has denominator 2
    A = builtin(name)
    n = A.dim
    for label, space in _sampled_spaces(A).items():
        basis = [BilinearTensor.from_flat(v, n) for v in space.vectors]
        rng = random.Random(7)
        for _ in range(4):
            twin = random.Random()
            twin.setstate(rng.getstate())
            got = verify_module._random_member(rng, space, n)
            coeffs = [F(twin.randint(-2, 2), twin.randint(1, 2)) for _ in basis]
            assert got == fraction_combination(coeffs, basis, BilinearTensor.zero(n)), label
            assert rng.getstate() == twin.getstate(), label


@pytest.mark.parametrize("name", ["heisenberg3", "L3", "sl2"])
def test_scalar_suite_derivations_are_lifts_of_their_drawn_coordinates(monkeypatch, name):
    # every even sweep sample's F is sum_i F(p, q) D_i over its drawn ratios
    A = builtin(name)
    ders = derivation_matrices(A)
    draws, Fs = [], []
    ratios, poly_right = verify_module.random_ratios, verify_module.to_poly_right
    monkeypatch.setattr(verify_module, "random_ratios",
                        lambda rng, count: draws.append(ratios(rng, count)) or draws[-1])
    monkeypatch.setattr(verify_module, "to_poly_right", lambda s: Fs.append(s.F) or poly_right(s))
    assert all(r.status != "fail" for r in scalar_suite(A, sweep_samples=12))
    assert len(draws) == 6 and len(Fs) == 12
    zero = Matrix.zeros(A.dim, A.dim)
    for drawn, got in zip(draws, Fs[::2]):
        assert got == fraction_combination([F(*r) for r in drawn], ders, zero)
