"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `biderlie` is imported from its
`src/`. Each pass over a workload's fixed input list runs in a fresh child
process, so no pass can be answered by a cache that an earlier pass filled.
The parent starts passes until `--seconds` would be exceeded (at least one),
adds set-up-only children until five set-ups were timed, checks that every
pass produced the same outputs as the first, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones. Times are at a fixed
reference speed of the host (`calibrate`), and each call counts with its
median over the run's passes (`typical_calls`).
With `--trace 1` untraced passes run for half of `--seconds`, then traced
passes for the other half, and the metrics are the per-layer ones from the
traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("verify-sweep", "spaces-scale", "bracket-stream")
MIN_SETUPS = 5
TIME_LIMIT_S = 170.0

# What one `calibrate()` round takes on the reference host (2-vCPU Xeon VM,
# Python 3.11); times are reported as they would read at that speed.
CAL_REF_S = 0.016

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("op_max_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # child-process protocol, used by the parent only
    p.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    p.add_argument("--gate", choices=("full", "digest"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- host speed -------------------------------------------------------------

def calibrate() -> float:
    """Seconds one round of fixed interpreter work (Fraction sums, dict inserts) takes now.

    The shared host this benchmark was tuned on changes speed by up to 1.7x
    within seconds and drifts over minutes (see README.md), in step for
    this loop and the library. A call timed between two rounds is reported
    at the reference speed: `seconds * CAL_REF_S / round`. The collector is
    off during a round, so heap the library keeps alive does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 6000):
            acc += Fraction(1, i % 97 + 1)
        table = {}
        for i in range(20000):
            table[(i, i % 7)] = i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, rounds: list[float]) -> float:
    return seconds * CAL_REF_S / statistics.fmean(rounds)


# --- child ------------------------------------------------------------------

def _child(args) -> int:
    sys.path.insert(0, str(SRC))
    import biderlie
    if Path(biderlie.__file__).resolve().parent != (SRC / "biderlie").resolve():
        print(f"bench: imported biderlie from {biderlie.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    expected = workloads.load_expected()
    the_pass = workloads.WORKLOADS[args.workload](args.seed, workdir, expected)
    result: dict = {"ready": time.monotonic(), "ready_cal": calibrate()}
    if args.child == "pass":
        result.update(run_pass(the_pass, args, expected, result["ready_cal"]))
    Path(args.out).write_text(json.dumps(result))
    return 0


def run_pass(the_pass, args, expected, cal=None) -> dict:
    """Time every call of one pass, then gate the outputs outside the timed region.

    A `calibrate()` round before and after each call gives the host's speed
    for it; `latencies` are at the reference speed.
    """
    rec = uninstall = None
    if args.trace:
        import layers
        import spans
        rec = spans.Recorder()
        uninstall = spans.install(rec, layers.TARGETS)
    outputs, failures, latencies = {}, {}, []
    cal = calibrate() if cal is None else cal
    raw_wall = 0.0
    for call in the_pass.calls:
        if rec is not None:
            rec.enabled = True
        t0 = time.perf_counter()
        try:
            outputs[call.label] = call.run()
        except Exception:
            failures[call.label] = "raised: " + traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if rec is not None:
            rec.enabled = False
        after = calibrate()
        latencies.append([call.label, at_reference_speed(t1 - t0, [cal, after])])
        raw_wall += t1 - t0
        cal = after
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if uninstall is not None:
        uninstall()

    digests = {}
    for call in the_pass.calls:
        if call.label in outputs:
            digests[call.label] = call.digest(outputs[call.label])
    gate_start = time.perf_counter()
    if args.gate == "full":
        failures.update(gate(the_pass, outputs, digests, args.seed, expected, args.workload))
    out = {"latencies": latencies, "rss_kib": rss_kib, "digests": digests,
           "failures": failures, "gate_s": time.perf_counter() - gate_start}
    if rec is not None:
        out["layers"] = trace_metrics(rec, raw_wall, args)
    return out


def gate(the_pass, outputs, digests, seed, expected, workload) -> dict:
    import workloads
    failures = {}
    for call in the_pass.calls:
        if call.label not in outputs:
            continue
        try:
            reason = call.check(outputs[call.label])
        except Exception:
            reason = "gate raised: " + traceback.format_exc(limit=3)
        if reason:
            failures[call.label] = reason
    if len(outputs) == len(the_pass.calls):
        try:
            failures.update(the_pass.cross_check(outputs))
        except Exception:
            failures["cross-check"] = "raised: " + traceback.format_exc(limit=3)
    recorded = expected.get(workload, {}).get("digests", {})
    if seed == workloads.DEFAULT_SEED:
        for label, digest in digests.items():
            if label in recorded and recorded[label] != digest:
                failures.setdefault(label, "output differs from the recorded default-seed digest")
    return failures


def trace_metrics(rec, wall, args) -> dict:
    import layers
    import spans
    TRACE_DIR.mkdir(exist_ok=True)
    rec.write_tsv(TRACE_DIR / f"{args.workload}-seed{args.seed}-pass{args.pass_index}.tsv.gz")
    summary = spans.summarize(rec, layers.LAYER_OF)
    return layers.pass_metrics(summary, rec.counts, rec.maxima, wall)


# --- parent -----------------------------------------------------------------

@dataclass
class Child:
    """One child run as the parent sees it: set-up time (at the reference speed), full
    wall time and its report."""

    setup_s: float | None
    wall_s: float
    report: dict | None
    error: str | None


def spawn(args, mode: str, workdir: Path, deadline: float, traced=False, gate="full",
          index=0) -> Child:
    out = workdir / f"child-{index}-{mode}{'-traced' if traced else ''}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0", "--child", mode,
           "--workdir", str(workdir / f"inputs-{index}"), "--out", str(out), "--gate", gate,
           "--pass-index", str(index)]
    cal = calibrate()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return Child(None, time.monotonic() - t0, None, "timed out")
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not out.exists():
        return Child(None, wall, None, f"exit code {proc.returncode}")
    report = json.loads(out.read_text())
    setup_s = at_reference_speed(report["ready"] - t0, [cal, report["ready_cal"]])
    return Child(setup_s, wall, report, None)


def run_phase(args, workdir, deadline, seconds, traced, first_index,
              reference=None) -> list[Child]:
    """Passes for `seconds`: one at least, another only while it should still fit."""
    children: list[Child] = []
    measured = 0.0
    while True:
        index = first_index + len(children)
        gate = "full" if reference is None and not children else "digest"
        child = spawn(args, "pass", workdir, deadline, traced, gate, index)
        children.append(child)
        if child.error is not None:
            break
        if reference is None:
            reference = child
        # gating is not part of the measured time; later passes gate by digest only
        next_s = child.wall_s - child.report["gate_s"]
        measured += next_s
        if measured + next_s > seconds or deadline - time.monotonic() < 2 * next_s:
            break
    return children


def account(children: list[Child], reference: Child | None) -> tuple[int, int, list[str]]:
    """Attempted calls, failed calls and failure notes over all pass children."""
    ref_digests = reference.report["digests"] if reference and reference.report else {}
    n_calls = len(reference.report["latencies"]) if reference and reference.report else 1
    attempted = failed = 0
    notes = []
    for child in children:
        if child.report is None:
            attempted += n_calls
            failed += n_calls
            notes.append(f"pass child failed: {child.error}")
            continue
        rep = child.report
        timed = dict(rep["latencies"])
        for label in timed:
            attempted += 1
            reason = rep["failures"].get(label)
            if reason is None and rep["digests"].get(label) != ref_digests.get(label):
                reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                notes.append(f"{label}: {reason}")
        for label, reason in rep["failures"].items():
            if label not in timed:
                failed += 1
                notes.append(f"{label}: {reason}")
    return attempted, failed, notes


def median_of(values):
    return statistics.median(values) if values else 0.0


def typical_calls(passes: list[Child]) -> list[float]:
    """Each call's median latency over the passes of a run, in call order."""
    by_label: dict[str, list[float]] = {}
    for child in passes:
        if child.report is not None:
            for label, s in child.report["latencies"]:
                by_label.setdefault(label, []).append(s)
    return [statistics.median(v) for v in by_label.values()]


def end_to_end(passes: list[Child], setups: list[float]) -> dict:
    reports = [c.report for c in passes if c.report is not None]
    calls = typical_calls(passes) or [0.0]
    return {
        "wall_s": sum(calls),
        "op_p50_s": median_of(calls),
        "op_max_s": max(calls),
        "setup_s": median_of(setups),
        "peak_rss_mib": median_of([r["rss_kib"] / 1024 for r in reports]),
    }


def per_layer(untraced: list[Child], traced: list[Child]) -> dict:
    import layers
    reports = [c.report for c in traced if c.report is not None]
    out = {}
    for name, _ in layers.PER_LAYER:
        values = [r["layers"][name] for r in reports if name in r["layers"]]
        out[name] = median_of(values)
    plain = sum(typical_calls(untraced))
    out["trace.overhead_ratio"] = sum(typical_calls(traced)) / plain if plain else 0.0
    return out


def _parent(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "biderlie" / "__init__.py").is_file():
        print(f"bench: no biderlie sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # a traced run splits its time between untraced and traced passes
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_phase(args, workdir, deadline, seconds, False, 0)
        reference = next((c for c in untraced if c.report is not None), None)
        traced = []
        if args.trace:
            traced = run_phase(args, workdir, deadline, seconds, True, len(untraced),
                               reference)
        setups = [c.setup_s for c in untraced + traced if c.setup_s is not None]
        index = len(untraced) + len(traced)
        while not args.trace and len(setups) < MIN_SETUPS and time.monotonic() < deadline - 5:
            child = spawn(args, "setup", workdir, deadline, index=index)
            index += 1
            if child.setup_s is None:
                break
            setups.append(child.setup_s)
        attempted, failed, notes = account(untraced + traced, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if reference is None:
        print("bench: no pass completed", file=sys.stderr)
    for note in notes:
        print(f"bench: FAILED {note}", file=sys.stderr)
    if args.trace:
        import layers
        values, units = per_layer(untraced, traced), dict(layers.PER_LAYER)
    else:
        values, units = end_to_end(untraced, setups), dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0 and reference is not None,
                      "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return _child(args) if args.child else _parent(args)


if __name__ == "__main__":
    sys.exit(main())
