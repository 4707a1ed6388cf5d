"""The benchmark workloads: their inputs, their calls and their correctness gates.

A workload builds, from a seed, the fixed list of calls that makes up one
pass. Every call is one user-visible operation: one `biderlie verify`, one
space solve, or one `biderlie bracket` request. Calls run back to back in a
closed loop. Gates run after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import biderlie.biderivations as biderivations
import biderlie.brackets as brackets
import biderlie.cli as cli
import biderlie.derivations as derivations
from biderlie.bilinear import BilinearTensor
from biderlie.formats import parse_map, serialize_algebra, serialize_map
from biderlie.linalg import Matrix, SubspaceBasis

from inputs import dense_heisenberg5, generic_algebra, heisenberg, poly_map

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Call:
    """One timed operation. `check` returns a failure reason, or None when correct."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]


@dataclass
class Pass:
    """The fixed input list of one pass, plus gates that relate several outputs."""

    calls: list[Call]
    cross_check: Callable[[dict], dict] = field(default=lambda outputs: {})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`biderlie <argv>` in-process; returns the exit code and the exact stdout text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_digest(out) -> str:
    return sha256(out[1])


# --- verify-sweep -----------------------------------------------------------

# The builtins whose `verify` takes at most a few seconds, not L1, which is
# abelian(2) under another name: a pass never repeats an input. Each call
# is timed once per pass and a run keeps each call's fastest time, so a
# pass must be short enough to repeat several times in a run. abelian(3)
# (~4 s), sl2 (~2.5 s), abelian(4) (~18 s) and heisenberg5 (~37 s) are left
# out for that reason (see README.md).
VERIFY_ALGEBRAS = ("abelian(2)", "L2", "heisenberg3", "L3", "L4")


def verify_check_list(text: str) -> list[list[str]]:
    return [[c["suite"], c["identity"], c["status"]] for c in json.loads(text)["checks"]]


def build_verify_sweep(seed: int, workdir: Path, expected: dict) -> Pass:
    checks = expected.get("verify-sweep", {}).get("checks", {})

    def gate(name):
        def check(out):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            payload = json.loads(text)
            if payload.get("ok") is not True or payload.get("seed") != seed:
                return "verify did not report ok for this seed"
            if name in checks and verify_check_list(text) != checks[name]:
                return "(suite, identity, status) list differs from the recorded one"
            return None
        return check

    calls = [Call(name, lambda name=name: run_cli(["verify", name, "--json", "--seed", str(seed)]),
                  gate(name), cli_digest)
             for name in VERIFY_ALGEBRAS]
    return Pass(calls)


# --- spaces-scale -----------------------------------------------------------

SPACE_KINDS = ("der", "right", "left", "both")
_SOLVERS = {"der": (derivations, "derivation_space"),
            "right": (biderivations, "right_bider_bilinear_space"),
            "left": (biderivations, "left_bider_bilinear_space"),
            "both": (biderivations, "bider_space")}


def spaces_algebras(seed: int):
    """heisenberg5 and heisenberg7, heisenberg5 in a dense basis, and a dense generic4;
    the seed draws a sign change of the last two."""
    rng = random.Random(seed)
    return [heisenberg(5), heisenberg(7), dense_heisenberg5(rng), generic_algebra(rng, 4)]


# The solves of one pass, per algebra in the order of `spaces_algebras`. The
# two-sided solves of heisenberg7, of the dense heisenberg5 and of generic4,
# and the one-sided ones of heisenberg7, take 3 to 8 s each: too long to be
# repeated several times in a run (see README.md).
SPACE_SOLVES = (SPACE_KINDS, ("der",), ("der", "right", "left"), ("der", "right", "left"))


def is_canonical(space: SubspaceBasis, ambient: int) -> bool:
    """Canonical RREF: pivots 1, each alone in its column, pivot columns increasing."""
    if space.ambient_dim != ambient or any(len(v) != ambient for v in space.vectors):
        return False
    last = -1
    for r, v in enumerate(space.vectors):
        p = next((c for c, x in enumerate(v) if x), None)
        if p is None or p <= last or v[p] != 1:
            return False
        if any(w[p] for s, w in enumerate(space.vectors) if s != r):
            return False
        last = p
    return True


def random_combination(rng: random.Random, vectors) -> tuple:
    """sum_i c_i v_i with independent c_i uniform in 1..2**32.

    The biderivation and derivation conditions are linear, so if some v_i
    violates one, its residual at the combination is a nonzero linear
    polynomial in the c_i and vanishes with probability at most 2**-32
    (Schwartz-Zippel). One predicate call on the combination thus checks a
    whole basis, where a call per vector would cost more than the solve.
    """
    acc = [0] * len(vectors[0])
    for v in vectors:
        c = rng.randint(1, 2 ** 32)
        for k, x in enumerate(v):
            if x:
                acc[k] += c * x
    return tuple(Fraction(x) for x in acc)


def members_ok(A, kind: str, vectors, rng: random.Random) -> bool:
    """Every basis vector satisfies the predicate of its space (see `random_combination`)."""
    if not vectors:
        return True
    n = A.dim
    v = random_combination(rng, vectors)
    if kind == "der":
        return derivations.is_derivation(A, Matrix.from_col_major(v, n))
    t = BilinearTensor.from_flat(v, n)
    if kind == "right":
        return biderivations.is_right_bider(A, t)
    if kind == "left":
        return biderivations.is_left_bider(A, t)
    return biderivations.is_bider(A, t)


def basis_digest(space: SubspaceBasis) -> str:
    lines = [f"ambient {space.ambient_dim}"] + [" ".join(map(str, v)) for v in space.vectors]
    return sha256("\n".join(lines))


def build_spaces_scale(seed: int, workdir: Path, expected: dict) -> Pass:
    algebras = spaces_algebras(seed)
    gate_rng = random.Random(f"gate-{seed}")
    calls = []
    for A, kinds in zip(algebras, SPACE_SOLVES):
        for kind in kinds:
            module, fn = _SOLVERS[kind]
            ambient = A.dim ** 2 if kind == "der" else A.dim ** 3

            def check(space, A=A, kind=kind, ambient=ambient):
                if not is_canonical(space, ambient):
                    return "basis is not in canonical RREF"
                if not members_ok(A, kind, space.vectors, gate_rng):
                    return f"a basis vector fails the {kind} predicate"
                return None

            calls.append(Call(f"{A.name}:{kind}",
                              lambda A=A, module=module, fn=fn: getattr(module, fn)(A),
                              check, basis_digest))

    def cross_check(outputs):
        bad = {}
        dims = {label: space.dim for label, space in outputs.items()}
        for A in algebras:
            der = dims[f"{A.name}:der"]
            for kind in ("right", "left"):
                if f"{A.name}:{kind}" in dims and dims[f"{A.name}:{kind}"] != A.dim * der:
                    bad[f"{A.name}:{kind}"] = "dim is not n * dim Der"
        changed = algebras[2].name
        for kind in SPACE_SOLVES[2]:
            if dims[f"{changed}:{kind}"] != dims[f"heisenberg5:{kind}"]:
                bad[f"{changed}:{kind}"] = "basis change altered the dimension"
        return bad

    return Pass(calls, cross_check)


# --- bracket-stream ---------------------------------------------------------

MAPS_PER_POOL = 6
TERM_COUNTS = tuple(10 + (30 * i) // (MAPS_PER_POOL - 1) for i in range(MAPS_PER_POOL))


def bracket_requests(seed: int, workdir: Path):
    """Write algebra and map files; return (algebras by file, request list).

    Each of heisenberg5 and heisenberg7 gets a pool of polyright and a pool
    of polyleft maps with 10..40 terms; request i pairs map i with map
    j = MAPS_PER_POOL-1-i of the same pool, so every seed gives the same
    term counts, and each pair is also requested the other way round.
    Requests with i < j are checked with the biderivation criterion, their
    mirrors by antisymmetry.
    """
    rng = random.Random(seed)
    algebras = {}
    requests = []
    for A in (heisenberg(5), heisenberg(7)):
        alg_file = workdir / f"{A.name}.alg"
        alg_file.write_text(serialize_algebra(A))
        algebras[str(alg_file)] = A
        ders = derivations.derivation_matrices(A)
        for side, op in (("right", "rhd"), ("left", "lhd")):
            files = []
            for i, terms in enumerate(TERM_COUNTS):
                path = workdir / f"{A.name}-{side}-{i}.map"
                path.write_text(serialize_map(poly_map(rng, ders, A.dim, terms, side == "left")))
                files.append(str(path))
            for i in range(MAPS_PER_POOL):
                j = MAPS_PER_POOL - 1 - i
                requests.append((f"{A.name}:{op}:{i}-{j}", op, i, j, files[i], files[j],
                                 str(alg_file)))
    return algebras, requests


def build_bracket_stream(seed: int, workdir: Path, expected: dict) -> Pass:
    algebras, requests = bracket_requests(seed, workdir)
    gate_rng = random.Random(f"gate-{seed}")

    def gate(op, alg_file, full):
        A = algebras[alg_file]
        cls = brackets.PolyRightMap if op == "rhd" else brackets.PolyLeftMap

        def check(out):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            R = parse_map(text)
            if not isinstance(R, cls) or R.dim != A.dim:
                return "result has the wrong map kind or dimension"
            if serialize_map(R) != text:  # hence parse_map(serialize_map(R)) == R as well
                return "result does not round-trip through the map format"
            # is_right_bider_poly / is_left_bider_poly: every coefficient matrix is a derivation
            if full and not members_ok(A, "der", [m.to_col_major() for m in R.terms.values()],
                                       gate_rng):
                return "result is not a biderivation of its side"
            return None
        return check

    calls = [Call(label,
                  lambda op=op, f1=f1, f2=f2, alg=alg: run_cli(
                      ["bracket", f1, f2, "--op", op, "--algebra", alg]),
                  gate(op, alg, full=i < j), cli_digest)
             for label, op, i, j, f1, f2, alg in requests]
    mirrored = {label: f"{label.rsplit(':', 1)[0]}:{j}-{i}"
                for label, _, i, j, _, _, _ in requests if i > j}

    def cross_check(outputs):
        # the bracket is antisymmetric, so request (i, j) must return minus request (j, i)
        bad = {}
        for label, twin in mirrored.items():
            if parse_map(outputs[label][1]) != -parse_map(outputs[twin][1]):
                bad[label] = "bracket is not antisymmetric against its mirrored request"
        return bad

    return Pass(calls, cross_check)


WORKLOADS = {
    "verify-sweep": build_verify_sweep,
    "spaces-scale": build_spaces_scale,
    "bracket-stream": build_bracket_stream,
}
