"""Command-line interface.

Algebra arguments accept either a builtin name (abelian(n), L1..L4,
heisenberg3, sl2), which wins over a file of that name, or a path to an
algebra file (`./sl2`). Output is deterministic: identical inputs and seed
produce byte-identical reports. Exit code 0 iff every requested check
passed. `main` may be called any number of times in one process: it builds
its parser on the first call, keeps it, and runs the `cmd_*` function of
the parsed command as the module holds it when called.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .algebras import _ABELIAN_RE, MAX_DEGREE, MAX_DIM, Algebra, builtin, check_kind
from .bilinear import BilinearTensor
from .biderivations import (basis_tensors, bider_space, is_bider, is_right_bider,
                            left_bider_bilinear_space, left_bider_witness,
                            right_bider_bilinear_space)
from .brackets import (PolyLeftMap, PolyRightMap, counterexample_bracket, from_tensor,
                       from_tensor_left, lhd, rhd)
from .derivations import derivation_matrices, derivation_space
from .formats import (FormatError, entry_lines, parse_algebra, parse_map, serialize_map,
                      text_rows)
from .report import (all_ok, format_element, render_table, to_json_checks, triple_str,
                     witness_from_triple)
from .verify import run_all


class CliError(Exception):
    pass


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_file(arg: str, parse, missing: str):
    try:
        text = Path(arg).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"{arg}: {missing}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"{arg}: cannot read: {exc}") from None
    try:
        return parse(text)
    except FormatError as exc:
        raise CliError(f"{arg}: {exc}") from exc


def _load_algebra(arg: str) -> Algebra:
    # a builtin name wins over a file of the same name, which `./name` reaches; with
    # no such file, an abelian(n) out of range reports the builtin's own range error
    try:
        return builtin(arg)
    except ValueError as exc:
        missing = str(exc) if _ABELIAN_RE.match(arg) else "no such file or builtin algebra"
        return _parse_file(arg, parse_algebra, missing)


def _algebra_line(A: Algebra) -> str:
    return f"algebra {A.name} (dim {A.dim}, kind {A.kind})"


def _witness_text(w) -> str:
    return ", ".join(f"{side} = {format_element(getattr(w, side))}"
                     for side in ("lhs", "rhs", "residual"))


def cmd_check(args) -> int:
    A = _load_algebra(args.algebra)
    rep = check_kind(A)
    if args.json:
        payload = {"command": "check", "algebra": A.name, "dim": A.dim, "kind": A.kind,
                   "ok": rep.ok}
        if not rep.ok:
            payload["witness"] = witness_from_triple(rep.witness)
        _emit_json(payload)
    else:
        print(_algebra_line(A))
        print(f"kind check ({rep.kind}): {'pass' if rep.ok else 'FAIL'}")
        if not rep.ok:
            w = rep.witness
            print(f"  {w.identity} fails at {triple_str(w.triple)}: {_witness_text(w)}")
    return 0 if rep.ok else 1


def cmd_der(args) -> int:
    A = _load_algebra(args.algebra)
    space = derivation_space(A)
    if args.json:
        _emit_json({"command": "der", "algebra": A.name, "dim": A.dim, "kind": A.kind,
                    "derivation_dim": space.dim, "basis_col_major": text_rows(space.basis)})
        return 0
    print(_algebra_line(A))
    print(f"dim Der = {space.dim}")
    for idx, m in enumerate(derivation_matrices(A), start=1):
        print(f"basis matrix {idx}:")
        for row in text_rows(m):
            print("  " + " ".join(row))
    return 0


def cmd_bider(args) -> int:
    A = _load_algebra(args.algebra)
    label, solve = {"right": ("right biderivation space (bilinear)", right_bider_bilinear_space),
                    "left": ("left biderivation space (bilinear)", left_bider_bilinear_space),
                    "both": ("biderivation space", bider_space)}[args.side]
    space = solve(A)
    if args.json:
        _emit_json({"command": "bider", "algebra": A.name, "dim": A.dim, "side": args.side,
                    "space_dim": space.dim, "basis_flat": text_rows(space.basis)})
        return 0
    print(_algebra_line(A))
    print(f"{label}: dim {space.dim}")
    for idx, t in enumerate(basis_tensors(space, A.dim), start=1):
        print(f"basis tensor {idx}:")
        for line in entry_lines(t, "t") or ["(zero)"]:
            print("  " + line)
    return 0


def cmd_bracket(args) -> int:
    A = _load_algebra(args.algebra)
    names = (args.map1, args.map2)
    maps = [_parse_file(arg, parse_map, "no such file") for arg in names]
    for name, m in zip(names, maps):
        if m.dim != A.dim:
            raise CliError(f"{name}: map dimension {m.dim} does not match algebra dim {A.dim}")
    cls, kind, convert, br = {"rhd": (PolyRightMap, "polyright", from_tensor, rhd),
                              "lhd": (PolyLeftMap, "polyleft", from_tensor_left, lhd)}[args.op]
    for name, m in zip(names, maps):
        if not isinstance(m, (BilinearTensor, cls)):
            raise CliError(f"{name}: {args.op} needs a {kind} or bilinear map")
    R = br(*(convert(m) if isinstance(m, BilinearTensor) else m for m in maps))
    del maps, m  # the operands go before the text is built
    if (degree := R.degree()) > MAX_DEGREE:
        raise CliError(f"{args.op} result of degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")
    text = serialize_map(R)
    if args.json:
        _emit_json({"command": "bracket", "op": args.op, "algebra": A.name,
                    "result_mapfile": text})
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    A = _load_algebra(args.algebra)
    checks = run_all(A, seed=args.seed, samples=args.samples)
    ok = all_ok(checks)
    if args.json:
        _emit_json({"command": "verify", "algebra": A.name, "dim": A.dim, "kind": A.kind,
                    "seed": args.seed, "samples": args.samples, "ok": ok,
                    "checks": to_json_checks(checks)})
    else:
        print(_algebra_line(A))
        print(f"seed {args.seed}, samples {args.samples}")
        print(render_table(checks))
    return 0 if ok else 1


_B1_VALUES = {(0, 0, 2): 1, (1, 1, 2): -1, (0, 1, 0): 1, (1, 0, 0): 1,
              (1, 2, 2): 1, (2, 1, 2): 1}
_B2_VALUES = {(0, 0, 0): 1, (1, 1, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1,
              (1, 2, 2): 1, (2, 1, 2): 1}


def heisenberg_example_maps() -> tuple[Algebra, BilinearTensor, BilinearTensor]:
    """The worked counterexample data: two symmetric biderivations of heisenberg3."""
    A = builtin("heisenberg3")
    b1 = BilinearTensor.from_entries(3, _B1_VALUES)
    b2 = BilinearTensor.from_entries(3, _B2_VALUES)
    return A, b1, b2


def _nonzero_values(B: BilinearTensor) -> list[tuple[str, str, str]]:
    """("e<i>", "e<j>", B(e_i, e_j) in the basis) for each basis pair whose value is not 0."""
    d, c, _ = B.int_form()
    return [(f"e{i + 1}", f"e{j + 1}", format_element([Fraction(x, d) for x in v]))
            for i, plane in enumerate(c) for j, v in enumerate(plane) if any(v)]


def cmd_example(args) -> int:
    if args.name not in ("heisenberg", "heisenberg3"):
        raise CliError(f"unknown example {args.name!r}; try: heisenberg")
    A, b1, b2 = heisenberg_example_maps()
    b1_ok, b2_ok = is_bider(A, b1), is_bider(A, b2)
    bracket = counterexample_bracket(A, b1, b2)
    right_ok = is_right_bider(A, bracket)
    left_witness = left_bider_witness(A, bracket)
    expected = b1_ok and b2_ok and right_ok and left_witness is not None
    values = _nonzero_values(bracket)
    if args.json:
        nonzero = [{"x": x, "y": y, "value": v} for x, y, v in values]
        payload = {"command": "example", "algebra": A.name,
                   "b1_is_biderivation": b1_ok, "b2_is_biderivation": b2_ok,
                   "bracket_nonzero": nonzero, "bracket_is_right": right_ok,
                   "bracket_is_left": left_witness is None, "ok": expected}
        if left_witness is not None:
            payload["left_witness"] = witness_from_triple(left_witness)
        _emit_json(payload)
        return 0 if expected else 1
    print(_algebra_line(A))
    print("nonzero products: [e1,e2] = e3, [e2,e1] = -e3")
    for label, tensor in (("B1", b1), ("B2", b2)):
        print(f"{label} nonzero values:")
        for x, y, v in _nonzero_values(tensor):
            print(f"  {label}({x},{y}) = {v}")
    print(f"B1 is a biderivation: {'yes' if b1_ok else 'NO'}")
    print(f"B2 is a biderivation: {'yes' if b2_ok else 'NO'}")
    print("B = rhd(B1,B2) on basis pairs (nonzero values only):")
    for x, y, v in values:
        print(f"B({x},{y}) = {v}")
    print(f"B is a right biderivation: {'yes' if right_ok else 'NO'}")
    if left_witness is None:
        print("B is a left biderivation: yes (unexpected)")
    else:
        print("B is a left biderivation: no")
        print(f"left-condition witness at {triple_str(left_witness.triple)}: "
              f"{_witness_text(left_witness)}")
    return 0 if expected else 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="biderlie",
        description="Exact derivation/biderivation computations for structure-constant algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify the declared product identity")
    c.add_argument("algebra", help="algebra file or builtin name")
    c.add_argument("--json", action="store_true")

    d = sub.add_parser("der", help="dimension and canonical basis of the derivation algebra "
                       f"(one exact solve, fast up to dim {MAX_DIM})")
    d.add_argument("algebra", help="algebra file or builtin name")
    d.add_argument("--json", action="store_true")

    b = sub.add_parser("bider", help="dimension and canonical basis of a biderivation space "
                       f"(exact solves: under a second at dim 8, seconds at {MAX_DIM})")
    b.add_argument("algebra", help="algebra file or builtin name")
    b.add_argument("--side", choices=["right", "left", "both"], default="both")
    b.add_argument("--json", action="store_true")

    br = sub.add_parser("bracket", help="bracket of two maps, printed in map-file format")
    br.add_argument("map1", help="map file")
    br.add_argument("map2", help="map file")
    br.add_argument("--op", choices=["rhd", "lhd"], required=True)
    br.add_argument("--algebra", required=True, help="algebra file or builtin name")
    br.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run every identity suite and print a pass/fail table "
                       "(the expensive command: up to min(CPUs, 7) processes; on 2 CPUs "
                       "about 31-34 s wall and 38-41 s CPU at dim 8)",
                       description="After the kind check, the suites run in up to "
                       "min(CPUs, 7) processes, costliest first. That cuts wall time, not "
                       "the total CPU time. With one CPU, or without os.fork (Windows), "
                       "they run in turn in one process.")
    v.add_argument("algebra", help="algebra file or builtin name")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=positive_int, default=25)
    v.add_argument("--json", action="store_true")

    e = sub.add_parser("example", help="reproduce the worked counterexample end to end")
    e.add_argument("name", help="example name (heisenberg)")
    e.add_argument("--json", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()
        return code
    except (CliError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C: verify's workers are already stopped and reaped when this arrives
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # the reader closed early (`biderlie ... | head`): drop the rest of the
        # output, including the flush at interpreter exit, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
