"""Record the default-seed reference outputs into bench/expected.json.

    python3 bench/record_expected.py

Runs one untraced pass of every workload at the default seed, refuses to
record unless every gate passes, and stores the sha256 of each call's
output (exact CLI stdout, or the canonical basis text) and the
(suite, identity, status) list of every `verify` call. Later runs compare
against these, so a faster path that changes a canonical basis or a byte
of output counts as a failure. Re-record only on purpose, when the output
is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def record(name: str) -> dict:
    seed = workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        the_pass = workloads.WORKLOADS[name](seed, Path(tmp), {})
        outputs = {call.label: call.run() for call in the_pass.calls}
        failures = {call.label: call.check(outputs[call.label]) for call in the_pass.calls}
    failures = {label: reason for label, reason in failures.items() if reason}
    failures.update(the_pass.cross_check(outputs))
    if failures:
        raise SystemExit(f"{name}: not recording, gates failed: {failures}")
    entry = {"digests": {call.label: call.digest(outputs[call.label]) for call in the_pass.calls}}
    if name == "verify-sweep":
        entry["checks"] = {label: workloads.verify_check_list(text)
                           for label, (_, text) in outputs.items()}
    return entry


def main() -> int:
    expected = {name: record(name) for name in run.WORKLOADS}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
