"""Tests of the benchmark's own code: span arithmetic, generators and gates.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import inputs
import layers
import run
import spans
import workloads
from biderlie import linalg
from biderlie.algebras import BUILTIN_NAMES, builtin, check_kind
from biderlie.derivations import derivation_space
from biderlie.linalg import Matrix, SubspaceBasis

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > grandchild [2,3]; root > b [5,6]
    starts, ends, parents = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0], [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 4.0, 5.0], [-1, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(6.0)


def test_recorder_wraps_consumers_and_restores_them():
    import biderlie.derivations as derivations
    original = linalg.rref
    rec = spans.Recorder()
    targets = [t for t in layers.TARGETS if t.name in ("linalg.rref", "linalg.nullspace")]
    uninstall = spans.install(rec, targets)
    try:
        assert linalg.rref is not original
        rec.enabled = True
        linalg.nullspace(Matrix([[1, 2], [2, 4]]))
        rec.enabled = False
    finally:
        uninstall()
    assert linalg.rref is original and derivations.solve_homogeneous is linalg.solve_homogeneous
    names = [rec.names[i] for i in rec.name_ids]
    assert names[0] == "linalg.nullspace"
    assert "linalg.rref" in names and spans.COUNT_SPAN in names
    assert all(p == 0 for p in rec.parents[1:] if p != -1)
    summary = spans.summarize(rec, layers.LAYER_OF)
    assert summary["roots_s"] == pytest.approx(sum(summary["layers"].values()))
    assert rec.counts["linalg.rref.rows"] >= 2 and rec.counts["linalg.rref.rank"] >= 1


def test_recorder_wraps_methods_on_the_class():
    rec = spans.Recorder()
    targets = [t for t in layers.TARGETS if t.name == "linalg.contains"]
    uninstall = spans.install(rec, targets)
    try:
        rec.enabled = True
        space = SubspaceBasis(2, ((Fraction(1), Fraction(0)),))
        assert space.contains((Fraction(3), Fraction(0)))
        assert not space.contains((Fraction(0), Fraction(1)))
    finally:
        uninstall()
    assert rec.counts["linalg.contains.hits"] == 1
    assert "contains" in SubspaceBasis.__dict__ and not hasattr(SubspaceBasis.contains,
                                                                 "__wrapped__")


def test_spaces_inputs_are_deterministic_per_seed():
    assert workloads.spaces_algebras(3) == workloads.spaces_algebras(3)
    assert workloads.spaces_algebras(3)[2] != workloads.spaces_algebras(4)[2]
    assert len({workloads.spaces_algebras(seed)[3] for seed in range(6)}) > 1


def test_bracket_inputs_are_deterministic_per_seed(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        workloads.bracket_requests(seed, d)
        return {p.name: p.read_text() for p in d.iterdir()}
    first = files(1, "a")
    assert files(1, "b") == first
    assert files(2, "c") != first


def test_bracket_maps_have_the_scheduled_term_counts(tmp_path):
    from biderlie.formats import parse_map
    workloads.bracket_requests(0, tmp_path)
    maps = [parse_map(p.read_text()) for p in tmp_path.glob("*.map")]
    assert len(maps) == 4 * workloads.MAPS_PER_POOL
    assert sorted({len(m.terms) for m in maps}) == list(workloads.TERM_COUNTS)
    assert max(m.degree() for m in maps) == 3


def _abs_constants(A):
    return [abs(x) for plane in A.c for row in plane for x in row]


def test_basis_change_invariants():
    A = inputs.heisenberg(5)
    P = inputs.DENSE_HEISENBERG5_BASIS * inputs.sign_change(random.Random(7), 5)
    B, P_inv = inputs.basis_change(A, P, "changed")
    assert P * P_inv == Matrix.identity(5)
    assert all(x.denominator == 1 for row in P_inv.data for x in row)
    assert check_kind(B).ok
    pairs = sum(1 for i in range(5) for j in range(i + 1, 5) if any(B.c[i][j]))
    support = sum(1 for k in range(5) if any(B.c[i][j][k] for i in range(5) for j in range(5)))
    assert (pairs, support) == (7, 3) and max(_abs_constants(B)) == 2
    assert inputs.basis_change(B, P_inv, "back")[0] == A
    assert derivation_space(B).dim == derivation_space(A).dim


def test_sign_changes_only_flip_signs_of_the_constants():
    plain, _ = inputs.basis_change(inputs.heisenberg(5), inputs.DENSE_HEISENBERG5_BASIS, "plain")
    drawn = [inputs.dense_heisenberg5(random.Random(seed)) for seed in range(6)]
    assert all(_abs_constants(B) == _abs_constants(plain) for B in drawn)
    assert len(set(drawn)) > 1


def test_exact_inverse_refuses_singular_matrices():
    with pytest.raises(ValueError):
        inputs.exact_inverse(Matrix([[1, 2], [2, 4]]))


def test_generic_algebra_is_dense_signs():
    G = inputs.generic_algebra(random.Random(1), 4)
    assert G.kind == "generic"
    assert {abs(x) for plane in G.c for row in plane for x in row} == {1}


def test_canonical_form_check_catches_a_broken_basis():
    good = linalg.canonicalize([(1, 2, 0), (0, 1, 1)], 3)
    assert workloads.is_canonical(good, 3)
    swapped = SubspaceBasis(3, tuple(reversed(good.vectors)))
    assert not workloads.is_canonical(swapped, 3)
    unreduced = SubspaceBasis(3, ((Fraction(1), Fraction(1), Fraction(0)),
                                  (Fraction(0), Fraction(1), Fraction(1))))
    assert not workloads.is_canonical(unreduced, 3)


def _pass_with_wrong_output():
    """Two derivation solves of heisenberg5; the second returns a basis with a wrong vector."""
    the_pass = workloads.build_spaces_scale(0, Path("."), {})
    der = next(c for c in the_pass.calls if c.label == "heisenberg5:der")
    right = der.run()
    wrong_vec = list(right.vectors[-1])
    wrong_vec[-1] += 1
    wrong = SubspaceBasis(right.ambient_dim, right.vectors[:-1] + (tuple(wrong_vec),))
    calls = [der, workloads.Call("heisenberg5:der-wrong", lambda: wrong, der.check, der.digest)]
    return workloads.Pass(calls)


def test_wrong_output_is_counted_as_a_failed_call():
    args = SimpleNamespace(trace=0, gate="full", seed=1, workload="spaces-scale")
    report = run.run_pass(_pass_with_wrong_output(), args, {})
    assert set(report["failures"]) == {"heisenberg5:der-wrong"}
    child = run.Child(0.1, 1.0, report, None)
    attempted, failed, notes = run.account([child], child)
    assert (attempted, failed) == (2, 1)
    assert "heisenberg5:der-wrong" in notes[0]


def test_a_later_pass_with_different_output_is_counted_as_failed():
    args = SimpleNamespace(trace=0, gate="full", seed=1, workload="spaces-scale")
    first = run.run_pass(_pass_with_wrong_output(), args, {})
    first["failures"] = {}
    later = dict(first, digests=dict(first["digests"], **{"heisenberg5:der": "0" * 64}))
    ref, other = run.Child(0.1, 1.0, first, None), run.Child(0.1, 1.0, later, None)
    assert run.account([ref, other], ref)[:2] == (4, 1)


def test_crashed_pass_counts_all_its_calls_as_failed():
    args = SimpleNamespace(trace=0, gate="full", seed=1, workload="spaces-scale")
    ref = run.Child(0.1, 1.0, run.run_pass(_pass_with_wrong_output(), args, {}), None)
    ref.report["failures"] = {}
    crashed = run.Child(None, 1.0, None, "exit code 1")
    assert run.account([ref, crashed], ref)[:2] == (4, 2)


def test_default_seed_digest_mismatch_fails_the_call():
    args = SimpleNamespace(trace=0, gate="full", seed=workloads.DEFAULT_SEED,
                           workload="spaces-scale")
    the_pass = _pass_with_wrong_output()
    the_pass.calls = the_pass.calls[:1]
    expected = {"spaces-scale": {"digests": {"heisenberg5:der": "f" * 64}}}
    report = run.run_pass(the_pass, args, expected)
    assert "heisenberg5:der" in report["failures"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "spaces-scale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_verify_sweep_never_repeats_a_builtin():
    assert builtin("L1") == builtin("abelian(2)")
    assert "L1" not in workloads.VERIFY_ALGEBRAS
    assert len(set(workloads.VERIFY_ALGEBRAS)) == len(workloads.VERIFY_ALGEBRAS)
    assert set(workloads.VERIFY_ALGEBRAS) <= set(BUILTIN_NAMES)


def test_end_to_end_times_take_each_calls_median_over_passes():
    def child(latencies, setup):
        return run.Child(setup, 1.0, {"latencies": latencies, "rss_kib": 2048}, None)
    passes = [child([["a", 1.0], ["b", 4.0], ["c", 2.0]], 0.5),
              child([["a", 3.0], ["b", 2.0], ["c", 2.5]], 0.3),
              run.Child(None, 1.0, None, "exit code 1")]
    metrics = run.end_to_end(passes, [0.5, 0.3, 0.4])
    assert metrics == pytest.approx({"wall_s": 7.25, "op_p50_s": 2.25, "op_max_s": 3.0,
                                     "setup_s": 0.4, "peak_rss_mib": 2.0})


def test_times_are_scaled_to_the_reference_speed():
    assert run.at_reference_speed(1.0, [run.CAL_REF_S, run.CAL_REF_S]) == pytest.approx(1.0)
    # a host running the calibration at half speed took twice as long for the same work
    assert run.at_reference_speed(2.0, [run.CAL_REF_S, 3 * run.CAL_REF_S]) == pytest.approx(1.0)
    assert run.calibrate() > 0
