import random
from fractions import Fraction

import pytest

from biderlie import (Algebra, BilinearTensor, bider_space, builtin, derivation_space, is_bider,
                      is_left_bider, is_right_bider, left_bider_bilinear_space,
                      left_bider_witness, right_bider_bilinear_space, right_bider_witness,
                      opposite, skew_symmetrize, symmetrize)
from biderlie import biderivations, derivations, linalg
import biderlie.verify as verify_module
from biderlie.algebras import bider_scan
from biderlie.biderivations import (basis_tensors, left_residual, right_residual,
                                    spaces_intersection)
from biderlie.cli import heisenberg_example_maps
from biderlie.linalg import (Matrix, SubspaceBasis, basis_vector, canonicalize, intersect,
                             nullspace, solve_homogeneous)
from biderlie.verify import _transpose_part

from helpers import spaces_scale_dense
from oracles import (bider_space_by_transpose, intersect_reference, left_bider_rows,
                     nullspace_reference, probe_rows, right_bider_rows, right_space_by_transpose,
                     sympy_nullspace_dim)

F = Fraction

ALL_BUILTINS = ("abelian(2)", "abelian(3)", "abelian(4)", "L1", "L2", "L3", "L4",
                "heisenberg3", "sl2")


@pytest.fixture
def example():
    return heisenberg_example_maps()


@pytest.fixture
def bracket_tensor():
    # the right-but-not-left counterexample: B(e2,e1) = -e1, zero elsewhere
    return BilinearTensor.from_entries(3, {(1, 0, 0): F(-1)})


def test_example_maps_are_right_biderivations(example):
    A, b1, b2 = example
    assert is_right_bider(A, b1)
    assert is_right_bider(A, b2)


def test_any_tensor_is_biderivation_of_abelian():
    A = builtin("abelian(3)")
    rng = random.Random(2)
    t = BilinearTensor(3, [[[F(rng.randint(-3, 3)) for _ in range(3)]
                            for _ in range(3)] for _ in range(3)])
    assert is_right_bider(A, t) and is_left_bider(A, t) and is_bider(A, t)


def test_bracket_tensor_is_right_not_left(example, bracket_tensor):
    A, _, _ = example
    assert is_right_bider(A, bracket_tensor)
    assert right_bider_witness(A, bracket_tensor) is None
    assert not is_left_bider(A, bracket_tensor)
    w = left_bider_witness(A, bracket_tensor)
    # classical witness: (x,y,z) = (e2,e2,e1) with defect e3
    assert w.triple == (1, 1, 0)
    assert w.lhs == (F(0), F(0), F(0))
    assert w.rhs == (F(0), F(0), F(1))
    assert w.residual == (F(0), F(0), F(1))


def test_left_residual_formula_at_witness(example, bracket_tensor):
    # residual of the left condition is (x2 y2 z1 - x2 y1 z2) e3 for this map;
    # probing all basis triples reproduces that closed form
    A, _, _ = example
    for i in range(3):
        for j in range(3):
            for k in range(3):
                x2 = F(1) if i == 1 else F(0)
                y1, y2 = (F(1) if j == 0 else F(0)), (F(1) if j == 1 else F(0))
                z1, z2 = (F(1) if k == 0 else F(0)), (F(1) if k == 1 else F(0))
                expected = (F(0), F(0), x2 * (y2 * z1 - y1 * z2))
                assert left_residual(A, bracket_tensor, i, j, k) == expected


def test_example_maps_are_biderivations(example):
    A, b1, b2 = example
    assert is_bider(A, b1)
    assert is_bider(A, b2)
    assert is_left_bider(A, b2)
    assert is_bider(A, BilinearTensor.zero(3))


def test_bider_space_abelian_dims():
    for n in (2, 3, 4):
        assert bider_space(builtin(f"abelian({n})")).dim == n ** 3


def _probe_system(A, residual_fn):
    """Independent system construction: probe every unit tensor through the
    residual evaluation and read the columns; solved by sympy, not by the
    package solver."""
    n = A.dim

    def residuals_of(flat):
        t = BilinearTensor.from_flat(flat, n)
        out = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out.extend(residual_fn(A, t, i, j, k))
        return out

    probes = [basis_vector(u, n ** 3) for u in range(n ** 3)]
    return probe_rows(residuals_of, n ** 3, probes)


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L4"])
def test_bider_space_against_probe_oracle(name):
    A = builtin(name)
    space = bider_space(A)
    rows = _probe_system(A, right_residual) + _probe_system(A, left_residual)
    assert space.dim == sympy_nullspace_dim(rows)
    for t in basis_tensors(space, A.dim):
        assert is_bider(A, t)


def test_heisenberg_example_maps_lie_in_bider_space(example):
    A, b1, b2 = example
    space = bider_space(A)
    assert space.contains(b1.flatten())
    assert space.contains(b2.flatten())


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_right_space_dimension_factorizes(name):
    A = builtin(name)
    n = A.dim
    assert right_bider_bilinear_space(A).dim == n * derivation_space(A).dim
    assert left_bider_bilinear_space(A).dim == n * derivation_space(A).dim


def test_right_space_known_dims():
    assert right_bider_bilinear_space(builtin("heisenberg3")).dim == 18
    assert right_bider_bilinear_space(builtin("sl2")).dim == 9
    assert right_bider_bilinear_space(builtin("abelian(3)")).dim == 27


@pytest.mark.parametrize("name", ["heisenberg3", "sl2"])
def test_right_space_against_probe_oracle(name):
    A = builtin(name)
    rows = _probe_system(A, right_residual)
    assert right_bider_bilinear_space(A).dim == sympy_nullspace_dim(rows)


def _heisenberg(n):
    # [e_i, e_{k+i}] = e_n for i = 1..k, n = 2k + 1
    k = n // 2
    entries = {}
    for i in range(k):
        entries[(i, k + i, n - 1)] = F(1)
        entries[(k + i, i, n - 1)] = F(-1)
    return Algebra.from_entries(f"heisenberg{n}", n, entries, "lie")


ORACLE_INPUTS = {name: (lambda name=name: builtin(name)) for name in ALL_BUILTINS}
ORACLE_INPUTS.update({
    "opposite(L3)": lambda: opposite(builtin("L3")),
    "opposite(L4)": lambda: opposite(builtin("L4")),
    "lie122": lambda: Algebra.from_entries("lie122", 2, {(0, 1, 1): F(1)}, "lie"),
    "heisenberg5": lambda: _heisenberg(5),
})


RIGHT_SPACE_INPUTS = dict(ORACLE_INPUTS)
RIGHT_SPACE_INPUTS.update({
    "abelian(1)": lambda: builtin("abelian(1)"),
    "heisenberg7": lambda: _heisenberg(7),
    # [e1, e1] = e1: D e1 = d e1 needs d = 2d, so Der and both one-sided spaces are 0
    "trivial-der": lambda: Algebra.from_entries("unit", 1, {(0, 0, 0): F(1)}, "generic"),
    # a Der basis with dense rows, not sparse elementary matrices
    "dense-heisenberg5-seed0": lambda: spaces_scale_dense(0)[0],
})


@pytest.mark.parametrize("name", RIGHT_SPACE_INPUTS)
def test_right_space_is_written_from_der_in_canonical_order(name):
    # y_j D for each canonical Der row D, basis for basis the transposed and
    # pivot-sorted left basis; up to dim 5, both block-copied spaces are also the
    # solutions of the direct n^3-unknown systems
    A = RIGHT_SPACE_INPUTS[name]()
    right = right_bider_bilinear_space(A)
    assert right == right_space_by_transpose(A)
    assert right.dim == A.dim * derivation_space(A).dim
    pivots = [row[0][0] for row in right.basis.sparse]
    assert pivots == sorted(set(pivots))
    if A.dim <= 5:
        unknowns = A.dim ** 3
        assert right == solve_homogeneous(right_bider_rows(A), unknowns)
        assert left_bider_bilinear_space(A) == solve_homogeneous(left_bider_rows(A), unknowns)


KERNEL_INPUTS = {
    "heisenberg5": lambda: _heisenberg(5),
    "heisenberg7": lambda: _heisenberg(7),
    "dense-heisenberg5-seed0": lambda: spaces_scale_dense(0)[0],
    "dense-heisenberg5-seed3": lambda: spaces_scale_dense(3)[0],
    "generic4-seed0": lambda: spaces_scale_dense(0)[1],
    "generic4-seed3": lambda: spaces_scale_dense(3)[1],
}


def _two_sided_coordinate_rows(A, monkeypatch):
    """The rows `bider_space` solves in coordinates over the right basis, as it passes
    them to `solve_over`, with the number of coordinates."""
    real, seen = biderivations.solve_over, []
    def recorded(space, rows):
        seen.append((list(map(list, rows)), space.dim))
        return real(space, seen[-1][0])
    with monkeypatch.context() as patch:
        patch.setattr(biderivations, "solve_over", recorded)
        bider_space(A)
    return seen[0] if seen else ([], 0)


@pytest.mark.parametrize("system", ["der", "two-sided"])
@pytest.mark.parametrize("name", KERNEL_INPUTS)
def test_kernel_entry_paths_match_the_reference_solver(name, system, monkeypatch):
    # solve_homogeneous and nullspace hand the elimination sparse rows with reversed
    # column indices, scaled to integers row by row: every canonical basis must be the
    # dense two-pass reference's, for integer rows, for the same rows scaled by mixed
    # rationals (some written as strings), and with zero and repeated rows appended,
    # which generic4's Der rows, of full column rank, leave unread
    A = KERNEL_INPUTS[name]()
    if system == "der":
        rows, n = derivations.derivation_rows(A), A.dim ** 2
    else:
        rows, n = _two_sided_coordinate_rows(A, monkeypatch)
        rows = [row for row in rows if any(row)]
    if not rows:
        assert system == "two-sided" and right_bider_bilinear_space(A).dim == 0
        return
    want = nullspace_reference(Matrix(rows))
    scaled = [[x * F((-1) ** r * (r % 5 + 1), r % 7 + 1) for x in row] for r, row in enumerate(rows)]
    scaled = [[str(x) for x in row] if r % 3 == 0 else row for r, row in enumerate(scaled)]
    padded = rows + [[0] * n, rows[0], [-x for x in rows[-1]], [0] * n] + rows
    for system_rows in (rows, scaled, padded):
        assert solve_homogeneous(system_rows, n) == want
        assert nullspace(Matrix(system_rows)) == want
    if name.startswith("generic4") and system == "der":
        assert want.dim == 0


def test_kernel_entry_paths_read_no_row_past_full_column_rank(monkeypatch):
    # the identity gives every column a pivot, so no row after it is scaled or read:
    # a row that cannot be iterated would raise if it were
    class Unread(list):
        def __iter__(self):
            raise AssertionError("row read past full column rank")
    def refused(*args):
        raise AssertionError("_eliminate called")
    monkeypatch.setattr(linalg, "_eliminate", refused)
    for k in range(1, 6):
        rows = [[int(r == c) for c in range(k)] for r in range(k)]
        rest = [[0] * k, rows[0], [F(1, 2)] * k, Unread([1] * k)]
        assert solve_homogeneous(rows + rest, k) == SubspaceBasis(k, ())
        assert nullspace(Matrix(rows + rest[:3])) == SubspaceBasis(k, ())


@pytest.mark.parametrize("name", ["L3", "heisenberg3", "sl2", "abelian(3)"])
def test_der_is_solved_once_per_algebra_object(name, monkeypatch):
    original, solves = derivations.solve_homogeneous, []
    def counted(rows, unknowns):
        solves.append(unknowns)
        return original(rows, unknowns)
    monkeypatch.setattr(derivations, "solve_homogeneous", counted)
    A = builtin(name)
    n = A.dim
    der = derivation_space(A)
    assert derivation_space(A) is der
    assert der == original(derivations.derivation_rows(A), n * n)
    right_bider_bilinear_space(A), left_bider_bilinear_space(A), bider_space(A)
    spaces_intersection(A)
    assert solves == [n * n]
    # the kept basis is not part of equality: a structurally equal object is
    # equal, hashes alike, and runs its own solve
    twin = Algebra(A.name, A.dim, A.product, A.kind)
    assert twin == A and hash(twin) == hash(A)
    assert derivation_space(twin) == der and derivation_space(twin) is not der
    assert solves == [n * n, n * n]


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_spaces_match_direct_system_oracle(name):
    # canonical bases, not just dimensions, against the n^3-unknown systems
    # assembled directly from the right and left conditions
    A = ORACLE_INPUTS[name]()
    right_rows, left_rows = right_bider_rows(A), left_bider_rows(A)
    unknowns = A.dim ** 3
    assert right_bider_bilinear_space(A) == solve_homogeneous(right_rows, unknowns)
    assert left_bider_bilinear_space(A) == solve_homogeneous(left_rows, unknowns)
    assert bider_space(A) == solve_homogeneous(right_rows + left_rows, unknowns)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_spaces_match_two_pass_reference_solvers(name):
    # the same n^3-unknown systems, solved by the reference solvers that
    # canonicalize every result with a second elimination
    A = ORACLE_INPUTS[name]()
    right_rows, left_rows = right_bider_rows(A), left_bider_rows(A)
    right, left = nullspace_reference(Matrix(right_rows)), nullspace_reference(Matrix(left_rows))
    assert right_bider_bilinear_space(A) == right
    assert left_bider_bilinear_space(A) == left
    assert bider_space(A) == nullspace_reference(Matrix(right_rows + left_rows))
    assert spaces_intersection(A) == intersect_reference(right, left)


def _count_eliminations(monkeypatch):
    """Record the column count of every call of the one elimination, `linalg._echelon`."""
    original, calls = linalg._echelon, []
    def counted(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)
    monkeypatch.setattr(linalg, "_echelon", counted)
    return calls


def test_each_canonical_basis_takes_one_rref(monkeypatch):
    # a second canonicalizing pass would be a second elimination
    calls = _count_eliminations(monkeypatch)
    def eliminations(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)
    a = canonicalize([(1, 0, 1, 0), (0, 1, 1, 2)])
    b = canonicalize([(1, 1, 2, 2), (0, 0, 0, 1)])
    assert eliminations(nullspace, Matrix([[1, 2, 0, 1], [2, 4, 1, 0]])) == 1
    assert eliminations(canonicalize, [(1, 2, 3), (2, 4, 6), (0, 1, 1)]) == 1
    assert eliminations(intersect, a, b) == 1
    # Der, then the left condition in coordinates over the right basis; a
    # system without rows takes none (abelian(n) and L1 have no Der rows,
    # and every right biderivation of L2 is a left one)
    want = {"abelian(2)": 0, "abelian(3)": 0, "abelian(4)": 0, "L1": 0, "L2": 1, "L3": 2,
            "L4": 2, "heisenberg3": 2, "sl2": 2}
    assert {name: eliminations(bider_space, builtin(name)) for name in ALL_BUILTINS} == want


@pytest.mark.parametrize("name", ["abelian(1)", "abelian(2)", "abelian(3)", "abelian(4)", "L1"])
def test_two_sided_space_of_a_zero_product_is_the_right_space(name):
    # no Der rows, so nothing constrains the coordinates over the right basis:
    # every tensor is a biderivation
    A = builtin(name)
    assert derivations.derivation_rows(A) == []
    both = bider_space(A)
    assert both == right_bider_bilinear_space(A) == left_bider_bilinear_space(A)
    assert both.dim == A.dim ** 3


TWO_SIDED_INPUTS = dict(RIGHT_SPACE_INPUTS)
TWO_SIDED_INPUTS.update({
    "dense-heisenberg5-seed3": lambda: spaces_scale_dense(3)[0],
    "generic4-seed0": lambda: spaces_scale_dense(0)[1],
    "generic4-seed3": lambda: spaces_scale_dense(3)[1],
})


@pytest.mark.parametrize("name", TWO_SIDED_INPUTS)
def test_two_sided_space_matches_the_transposed_block_product(name):
    # the Der rows meet the right basis's sparse rows entry by entry: the same
    # system, so the same canonical basis, as the product with the transposed blocks
    A = TWO_SIDED_INPUTS[name]()
    assert bider_space(A) == bider_space_by_transpose(A)


def test_intersect_solves_over_its_first_argument(monkeypatch):
    # one unknown per basis vector of a, none for b: membership in b is a
    # condition on a's coordinates, not a second set of unknowns
    a = canonicalize([(1, 0, 1, 0, 2), (0, 1, 1, 2, 0)])
    b = canonicalize([(1, 1, 2, 2, 2), (0, 0, 0, 1, 0), (1, 0, 0, 0, 2)])
    calls = _count_eliminations(monkeypatch)
    meet = intersect(a, b)
    assert calls == [a.dim]
    assert meet.dim == 1 and meet == intersect_reference(a, b)


def _idempotents():
    # e1 e1 = e1 and e2 e2 = e2: D(e_i) = D(e_i) e_i + e_i D(e_i) forces
    # D(e_i) = 0, so Der is 0 and so is the right space
    return Algebra.from_entries("idempotents", 2, {(0, 0, 0): F(1), (1, 1, 1): F(1)}, "generic")


TRANSPOSE_PART_INPUTS = {name: (lambda name=name: builtin(name)) for name in ALL_BUILTINS}
TRANSPOSE_PART_INPUTS.update({"heisenberg5": lambda: _heisenberg(5), "idempotents": _idempotents})


@pytest.mark.parametrize("name", TRANSPOSE_PART_INPUTS)
def test_transpose_parts_match_reference_intersections(name):
    # the symmetric and skew parts of the right space, solved over it, against
    # the stacked-system intersection of the right space with the canonicalized
    # spanning sets e_ijk + e_jik (i <= j) and e_ijk - e_jik (i < j)
    A = TRANSPOSE_PART_INPUTS[name]()
    n = A.dim
    right = right_bider_bilinear_space(A)

    def unit(i, j, k):
        return BilinearTensor.from_entries(n, {(i, j, k): F(1)})

    pairs = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)]
    symmetric = [(unit(i, j, k) + unit(j, i, k) if i != j else unit(i, j, k)).flatten()
                 for i, j, k in pairs]
    skew = [(unit(i, j, k) - unit(j, i, k)).flatten() for i, j, k in pairs if i != j]
    sym_part, skew_part = _transpose_part(right, n, 1), _transpose_part(right, n, -1)
    assert sym_part == intersect_reference(right, canonicalize(symmetric, n ** 3))
    assert skew_part == intersect_reference(right, canonicalize(skew, n ** 3))
    if name == "idempotents":
        assert right.dim == 0       # solve_over on an empty basis
    if name.startswith("abelian"):
        # every tensor is a right biderivation of an abelian algebra
        assert (sym_part.dim, skew_part.dim) == (n * n * (n + 1) // 2, n * n * (n - 1) // 2)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_right_space_membership_reads_the_pivots(name):
    # every basis vector is a member; one with a non-pivot coordinate
    # perturbed is not, since its pivot entries name the unperturbed vector
    space = right_bider_bilinear_space(builtin(name))
    pivots = {next(c for c, x in enumerate(v) if x) for v in space.vectors}
    free = [c for c in range(space.ambient_dim) if c not in pivots]
    for v in space.vectors:
        assert space.contains(v)
        for c in free[:3] + free[-3:]:
            bumped = list(v)
            bumped[c] += F(1, 3)
            assert not space.contains(bumped)
    assert space.contains(space.member([F(u + 1, 2) for u in range(space.dim)]))


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_intersection_law(name):
    A = builtin(name)
    assert bider_space(A) == spaces_intersection(A)


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L3", "L4"])
def test_space_members_pass_predicates(name):
    A = builtin(name)
    n = A.dim
    for t in basis_tensors(right_bider_bilinear_space(A), n):
        assert is_right_bider(A, t)
    for t in basis_tensors(left_bider_bilinear_space(A), n):
        assert is_left_bider(A, t)


def test_symmetric_or_skew_right_is_left(example):
    # conditional form of the one-sided lemma, via doubles of random members
    A, _, _ = example
    rng = random.Random(0)
    tensors = basis_tensors(right_bider_bilinear_space(A), 3)
    checked = 0
    for _ in range(40):
        acc = BilinearTensor.zero(3)
        for t in tensors:
            f = F(rng.randint(-2, 2), rng.randint(1, 2))
            if f:
                acc = acc + f * t
        for d in (symmetrize(acc), skew_symmetrize(acc)):
            if is_right_bider(A, d):
                checked += 1
                assert is_left_bider(A, d)
    # two-sided members always produce right-biderivation doubles
    for t in basis_tensors(bider_space(A), 3):
        for d in (symmetrize(t), skew_symmetrize(t)):
            assert is_right_bider(A, d)
            assert is_left_bider(A, d)
            assert is_bider(A, d)
            checked += 1
    assert checked > 0


def test_vector_space_closure(example):
    A, _, _ = example
    rng = random.Random(1)
    tensors = basis_tensors(right_bider_bilinear_space(A), 3)
    space = right_bider_bilinear_space(A)
    for _ in range(25):
        acc = BilinearTensor.zero(3)
        for t in tensors:
            f = F(rng.randint(-2, 2), rng.randint(1, 2))
            if f:
                acc = acc + f * t
        assert is_right_bider(A, acc)
        assert space.contains(acc.flatten())


def test_dimension_mismatch_raises(example):
    A, _, _ = example
    with pytest.raises(ValueError):
        is_right_bider(A, BilinearTensor.zero(2))


def _one_row_short(A):
    b = right_bider_bilinear_space(A).basis
    return SubspaceBasis._of(Matrix._of(b.rows - 1, b.cols, b.den, b.ints[:-b.cols]))


_SPACE_CHECKS = ("right-space-is-derivation-valued", "left-space-is-derivation-valued",
                 "right-space-members-pass-predicate", "left-space-members-pass-predicate",
                 "biderivation-space-members-pass-both", "biderivation-space-is-intersection")
def _sides_swapped(A, ints, side):
    return bider_scan(A, ints, "left" if side == "right" else "right")


_SPACE_FAULTS = {  # the name in `verify` replaced, and what replaces it
    "both-is-right": ("bider_space", right_bider_bilinear_space),
    "right-one-row-short": ("right_bider_bilinear_space", _one_row_short),
    "left-is-right": ("left_bider_bilinear_space", right_bider_bilinear_space),
    "scan-sides-swapped": ("bider_scan", _sides_swapped),
}
# the spaces suite's (status, witness) per check on heisenberg3, in _SPACE_CHECKS order,
# under each fault: which checks catch it is pinned, and which let it through.
# `spaces_intersection` solves its own right and left spaces, so the meet check
# sees only a fault in `bider_space`
_SPACE_PINNED = {
    None: [("pass", None)] * 6,
    "both-is-right": [("pass", None)] * 4 + [("fail", None)] * 2,
    "right-one-row-short": [("fail", None)] + [("pass", None)] * 5,
    "left-is-right": [("pass", None), ("fail", None), ("pass", None), ("fail", None),
                      ("pass", None), ("pass", None)],
    # only the members scans see it; the two-sided space is scanned on both sides anyway
    "scan-sides-swapped": [("pass", None)] * 2 + [("fail", None)] * 2 + [("pass", None)] * 2,
}


@pytest.mark.parametrize("fault", _SPACE_PINNED)
def test_spaces_suite_under_each_fault(monkeypatch, fault):
    if fault is not None:
        monkeypatch.setattr(verify_module, *_SPACE_FAULTS[fault])
    results = verify_module.space_suite(builtin("heisenberg3"))
    assert [(r.suite, r.identity) for r in results] == [("spaces", c) for c in _SPACE_CHECKS]
    assert [(r.status, r.witness) for r in results] == _SPACE_PINNED[fault]


@pytest.mark.parametrize("name", ["L3", "sl2", "L4"])
def test_swapped_scan_sides_fail_the_members_scans_only(monkeypatch, name):
    # the right and left spaces differ on these as on heisenberg3, so each one-sided
    # members scan, asked on the other side, fails
    monkeypatch.setattr(verify_module, *_SPACE_FAULTS["scan-sides-swapped"])
    results = verify_module.space_suite(builtin(name))
    assert [(r.status, r.witness) for r in results] == _SPACE_PINNED["scan-sides-swapped"]


def _one_row_outside(A):
    # the right space with its last row replaced by B(e_1, e_1) = e_1, whose column map
    # E_11 is no derivation of heisenberg3: the dimension is still n dim Der
    b = right_bider_bilinear_space(A).basis
    outside = [int(p == 0) for p in range(b.cols)]
    return canonicalize(list(b.data[:-1]) + [outside])


def test_spaces_suite_under_a_right_space_not_inside_der_tensor_qn(monkeypatch):
    # dim = n dim Der holds, so only the inclusion of the column maps in Der, one
    # residual, tells this space from Der (x) Q^n; the members scan fails it too
    A = builtin("heisenberg3")
    assert _one_row_outside(A).dim == A.dim * derivation_space(A).dim
    monkeypatch.setattr(verify_module, "right_bider_bilinear_space", _one_row_outside)
    results = verify_module.space_suite(A)
    assert [(r.identity, r.status, r.witness) for r in results] == [
        (c, "fail" if c.startswith("right-") else "pass", None) for c in _SPACE_CHECKS]


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L3", "abelian(2)"])
def test_space_and_derivation_suites_test_membership_by_residuals(monkeypatch, name):
    # every membership question of the two suites is one `SubspaceBasis.residual`
    def no_contains(self, v):
        raise AssertionError("contains called")
    monkeypatch.setattr(SubspaceBasis, "contains", no_contains)
    A = builtin(name)
    assert all(r.status == "pass" for r in verify_module.derivation_suite(A)
               + verify_module.space_suite(A))


@pytest.mark.parametrize("residual", [right_residual, left_residual])
@pytest.mark.parametrize("triple", [(-1, 0, 0), (0, 3, 0), (0, 0, -3)])
def test_residuals_refuse_an_index_outside_the_dimension(residual, triple):
    # a -1 wrapped to the last basis vector and answered a zero residual
    A = builtin("heisenberg3")
    with pytest.raises(ValueError, match="outside 0..2"):
        residual(A, A.product, *triple)
