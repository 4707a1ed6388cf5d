"""Check results and their deterministic text / JSON renderings."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckResult:
    suite: str
    identity: str
    status: str
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def all_ok(results: Iterable[CheckResult]) -> bool:
    return all(r.ok for r in results)


SCAN_CHUNK = 100  # samples per scan: bounds a sampled check's memory; default counts take one


def sample_chunks(count: int, name: str) -> list[range]:
    """The samples 0..count-1 in runs of `SCAN_CHUNK`, each stacked into one scan. A count below
    1 is refused: a sampled check over no samples passes unchecked."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return [range(s, min(s + SCAN_CHUNK, count)) for s in range(0, count, SCAN_CHUNK)]


def format_element(v: Sequence[Fraction]) -> str:
    """Coordinate vector written in the basis, e.g. '-e1 + 1/2*e3'."""
    parts = []
    for idx, c in enumerate(v, start=1):
        if not c:
            continue
        if c == 1:
            parts.append(f"e{idx}")
        elif c == -1:
            parts.append(f"-e{idx}")
        else:
            parts.append(f"{c}*e{idx}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


def triple_str(triple: Sequence[int]) -> str:
    """Basis triple in 1-based display form, e.g. '(e2,e2,e1)'."""
    return "(" + ",".join(f"e{i + 1}" for i in triple) + ")"


def witness_from_triple(w) -> dict:
    """JSON-able witness dict for a TripleWitness-shaped object."""
    return {
        "identity": w.identity,
        "triple": [i + 1 for i in w.triple],
        "lhs": format_element(w.lhs),
        "rhs": format_element(w.rhs),
        "residual": format_element(w.residual),
    }


def check(suite: str, identity: str, ok: bool, witness: dict | None = None) -> CheckResult:
    return CheckResult(suite, identity, PASS if ok else FAIL, None if ok else witness)


def skip(suite: str, identity: str, reason: str) -> CheckResult:
    return CheckResult(suite, identity, SKIP, {"reason": reason})


def render_table(results: Sequence[CheckResult]) -> str:
    lines = [f"{'suite':<18} {'identity':<38} status"]
    for r in results:
        lines.append(f"{r.suite:<18} {r.identity:<38} {r.status}")
        if r.witness and r.status == FAIL:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(r.witness.items()))
            lines.append(f"    witness: {detail}")
    failed = sum(1 for r in results if r.status == FAIL)
    skipped = sum(1 for r in results if r.status == SKIP)
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append(f"result: {verdict} ({len(results)} checks, {failed} failed, {skipped} skipped)")
    return "\n".join(lines)


def to_json_checks(results: Sequence[CheckResult]) -> list[dict]:
    out = []
    for r in results:
        item: dict = {"suite": r.suite, "identity": r.identity, "status": r.status}
        if r.witness is not None:
            item["witness"] = r.witness
        out.append(item)
    return out
