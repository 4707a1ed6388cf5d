import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from biderlie import (BUILTIN_NAMES, BilinearTensor, PolyRightMap, builtin, derivation_space,
                      from_tensor, from_tensor_left, lhd, parse_algebra, parse_map, rhd,
                      serialize_algebra)
from biderlie.algebras import MAX_DEGREE, MAX_DIM, Algebra
from biderlie import cli
from biderlie.bilinear import random_tensor
from biderlie.brackets import _PolyMap
from biderlie.cli import heisenberg_example_maps, main
from biderlie.formats import serialize_map
from biderlie.linalg import Matrix

from oracles import bider_output_reference, der_output_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_contains_exact_line(capsys):
    code, out, _ = run_cli(capsys, "example", "heisenberg")
    assert code == 0
    assert "B(e2,e1) = -e1" in out.splitlines()
    assert "B is a right biderivation: yes" in out
    assert "B is a left biderivation: no" in out


def test_example_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "example", "heisenberg", "--json")
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()
    assert data["bracket_nonzero"] == [{"value": "-e1", "x": "e2", "y": "e1"}]
    assert data["bracket_is_right"] is True
    assert data["bracket_is_left"] is False


def test_der_abelian3_dimension(capsys):
    code, out, _ = run_cli(capsys, "der", "abelian(3)")
    assert code == 0
    assert "dim Der = 9" in out


def test_der_json_parses_back(capsys):
    code, out, _ = run_cli(capsys, "der", "heisenberg3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["derivation_dim"] == 6
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()


def test_check_pass_and_fail(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check", "L4")
    assert code == 0 and "pass" in out
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\ndim 2\nkind lie\nc 1 2 1 = 1\n")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "FAIL" in out and "antisymmetry" in out


def test_bider_sides(capsys):
    code, out, _ = run_cli(capsys, "bider", "heisenberg3", "--side", "right")
    assert code == 0 and "dim 18" in out
    code, out, _ = run_cli(capsys, "bider", "heisenberg3", "--side", "left")
    assert code == 0 and "dim 18" in out
    code, out, _ = run_cli(capsys, "bider", "heisenberg3", "--side", "both")
    assert code == 0 and "dim 12" in out


def test_bracket_command_matches_library(capsys, tmp_path):
    A, b1, b2 = heisenberg_example_maps()
    alg = tmp_path / "h3.alg"
    alg.write_text(serialize_algebra(A))
    m1, m2 = tmp_path / "b1.map", tmp_path / "b2.map"
    m1.write_text(serialize_map(b1))
    m2.write_text(serialize_map(b2))
    code, out, _ = run_cli(capsys, "bracket", str(m1), str(m2), "--op", "rhd",
                           "--algebra", str(alg))
    assert code == 0
    assert parse_map(out) == rhd(from_tensor(b1), from_tensor(b2))


def test_bracket_command_runs_in_integers_from_file_to_file(capsys, tmp_path, monkeypatch):
    # map files are parsed into, and written from, the integer form: no `Fraction`
    # matrix is built from it, in text mode or --json, for either op and order
    A, b1, b2 = heisenberg_example_maps()
    alg = tmp_path / "h3.alg"
    alg.write_text(serialize_algebra(A))
    rng = random.Random("integer-file-path")
    files = {}
    for name in ("p1", "p2"):
        P = PolyRightMap(3, {(rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 2)): Matrix(
            [[rng.choice((0, 1, -2, F(1, 2), F(-3, 4))) for _ in range(3)] for _ in range(3)])
            for _ in range(4)})
        files[name, "rhd"], files[name, "lhd"] = P, P.transpose()
    for name, b in (("b1", b1), ("b2", b2)):
        files[name, "rhd"] = files[name, "lhd"] = b
    paths = {}
    for (name, op), m in files.items():
        paths[name, op] = tmp_path / f"{name}-{op}.map"
        paths[name, op].write_text(serialize_map(m))

    def refuse(*args, **kwargs):
        raise AssertionError("built a Fraction matrix on the file-to-file path")

    # `Matrix.data` is the one place a matrix's `Fraction` entries are built
    monkeypatch.setattr(Matrix, "data", property(refuse))
    for op, br, convert in (("rhd", rhd, from_tensor), ("lhd", lhd, from_tensor_left)):
        for first, second in (("p1", "p2"), ("p2", "p1"), ("b1", "p2"), ("p1", "b2")):
            want = br(*(convert(m) if isinstance(m, BilinearTensor) else m
                        for m in (files[first, op], files[second, op])))
            argv = ["bracket", str(paths[first, op]), str(paths[second, op]), "--op", op,
                    "--algebra", str(alg)]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == "" and parse_map(out) == want
            code, out, err = run_cli(capsys, *argv, "--json")
            assert code == 0 and err == ""
            assert parse_map(json.loads(out)["result_mapfile"]) == want
    # with poly map files alone, no matrix is built from `Fraction` entries either
    monkeypatch.setattr(Matrix, "__init__", refuse)
    code, out, _ = run_cli(capsys, "bracket", str(paths["p1", "lhd"]), str(paths["p2", "lhd"]),
                           "--op", "lhd", "--algebra", str(alg))
    assert code == 0 and out.startswith("map polyleft\ndim 3\n")


def test_bracket_drops_its_operands_before_writing(capsys, tmp_path, monkeypatch):
    # the parsed maps are gone by the time the result is serialized: the maps alive then
    # are those alive before and the result
    A, b1, b2 = heisenberg_example_maps()
    alg = tmp_path / "h3.alg"
    alg.write_text(serialize_algebra(A))
    paths = []
    for name, b in (("b1", b1), ("b2", b2)):
        paths.append(tmp_path / f"{name}.map")
        paths[-1].write_text(serialize_map(from_tensor(b)))

    def alive() -> int:
        gc.collect()
        return sum(isinstance(o, _PolyMap) for o in gc.get_objects())

    seen = []

    def serialize(P):
        seen.append(alive())
        return serialize_map(P)

    monkeypatch.setattr(cli, "serialize_map", serialize)
    before = alive()
    code, out, _ = run_cli(capsys, "bracket", *map(str, paths), "--op", "rhd",
                           "--algebra", str(alg))
    assert code == 0 and parse_map(out) == rhd(from_tensor(b1), from_tensor(b2))
    assert seen == [before + 1]


def test_bracket_rejects_wrong_side_map(capsys, tmp_path):
    alg = tmp_path / "h3.alg"
    alg.write_text(serialize_algebra(builtin("heisenberg3")))
    left = tmp_path / "left.map"
    left.write_text("map polyleft\ndim 3\nm (1,0,0) 1 1 = 1\n")
    right = tmp_path / "right.map"
    right.write_text("map polyright\ndim 3\nm (1,0,0) 1 1 = 1\n")
    code, _, err = run_cli(capsys, "bracket", str(left), str(right), "--op", "rhd",
                           "--algebra", str(alg))
    assert code == 2
    assert "polyright or bilinear" in err


def test_verify_builtin_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "L3", "--samples", "5")
    assert code == 0
    assert "result: PASS" in out


def test_verify_generic_l4_from_file(capsys, tmp_path):
    L4 = builtin("L4")
    generic = Algebra("L4-generic", 2, L4.c, "generic")
    path = tmp_path / "l4gen.alg"
    path.write_text(serialize_algebra(generic))
    code, out, _ = run_cli(capsys, "verify", str(path), "--samples", "10")
    assert code == 0
    assert "result: PASS" in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "verify", "L2", "--samples", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()
    assert data["ok"] is True
    for item in data["checks"]:
        assert set(item) <= {"suite", "identity", "status", "witness"}
        assert item["status"] in ("pass", "fail", "skip")


def test_verify_failure_exits_nonzero(capsys, tmp_path):
    # a lie-declared file that is not antisymmetric fails the kind suite
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\ndim 2\nkind lie\nc 1 2 1 = 1\n")
    code, out, _ = run_cli(capsys, "verify", str(bad), "--samples", "3")
    assert code == 1
    assert "result: FAIL" in out


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "L2", "--samples", "5")
    _, out2, _ = run_cli(capsys, "verify", "L2", "--samples", "5")
    assert out1 == out2
    _, der1, _ = run_cli(capsys, "der", "sl2")
    _, der2, _ = run_cli(capsys, "der", "sl2")
    assert der1 == der2


def test_missing_file_or_builtin(capsys):
    code, _, err = run_cli(capsys, "der", "nope.alg")
    assert code == 2
    assert "no such file or builtin" in err


def test_malformed_file_reports_location(capsys, tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("algebra x\ndim 2\nkind lie\nc 9 1 1 = 1\n")
    code, _, err = run_cli(capsys, "der", str(bad))
    assert code == 2
    assert "line 4" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "biderlie.cli", "example", "heisenberg"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "B(e2,e1) = -e1" in proc.stdout


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_samples_below_one(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "L2", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_closed_pipe_exits_quietly():
    # the reader is gone before the first write, as with `biderlie der sl2 --json | head`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.Popen([sys.executable, "-m", "biderlie.cli", "der", "sl2", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_unreadable_inputs_are_one_line_errors(capsys, tmp_path):
    # a directory and non-UTF-8 bytes, through both the algebra and the map loader
    latin_alg = tmp_path / "latin1.alg"
    latin_alg.write_bytes("algebra caf\xe9\ndim 2\nkind lie\n".encode("latin-1"))
    latin_map = tmp_path / "latin1.map"
    latin_map.write_bytes(b"map bilinear\ndim 2\n# \xff\n")
    d = str(tmp_path)
    for argv in (("der", d), ("der", str(latin_alg)),
                 ("bracket", d, d, "--op", "rhd", "--algebra", "L2"),
                 ("bracket", str(latin_map), str(latin_map), "--op", "lhd", "--algebra", "L2"),
                 ("bracket", str(latin_map), str(latin_map), "--op", "rhd",
                  "--algebra", str(latin_alg))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_map_degree_over_the_cap_is_a_one_line_error(capsys, tmp_path):
    huge = tmp_path / "huge.map"
    huge.write_text("map polyright\ndim 2\nm (99999999999,0) 1 1 = 1\n")
    fine = tmp_path / "fine.map"
    fine.write_text(f"map polyright\ndim 2\nm ({MAX_DEGREE},0) 1 2 = 1\n")
    for argv in (("bracket", str(huge), str(fine), "--op", "rhd", "--algebra", "L2"),
                 ("bracket", str(fine), str(huge), "--op", "rhd", "--algebra", "L2")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {huge}: line 3: monomial degree 99999999999 exceeds {MAX_DEGREE}\n"
    code, out, _ = run_cli(capsys, "bracket", str(fine), str(fine), "--op", "rhd",
                           "--algebra", "L2")
    assert (code, out) == (0, "map polyright\ndim 2\n")


@pytest.mark.parametrize("tok", ["1e999999999", "1e5000", "-1E+700", "1/" + "3" * 700])
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_map_literal_over_the_digit_cap_is_a_one_line_error(capsys, tmp_path, tok, flags):
    # refused at its line before any integer is built: 1e5000 once reached the writer as a
    # 5001-digit integer, past str()'s digit limit, and 1e999999999 would take 3.3 gigabits
    huge = tmp_path / "huge.map"
    huge.write_text(f"map polyright\ndim 2\nm (1,0) 1 1 = {tok}\n")
    fine = tmp_path / "fine.map"
    fine.write_text("map polyright\ndim 2\nm (0,1) 1 2 = 1e639\n")
    for pair in ((huge, fine), (fine, huge)):
        code, out, err = run_cli(capsys, "bracket", *map(str, pair), "--op", "rhd",
                                 "--algebra", "abelian(2)", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {huge}: line 3: literal over 640 digits in numerator or denominator\n"


@pytest.mark.parametrize("op, kind", [("rhd", "polyright"), ("lhd", "polyleft")])
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_bracket_past_the_degree_cap_is_refused(capsys, tmp_path, op, kind, flags):
    # degrees add under the bracket: [E11 y1^d, E12 y2^d] = E12 (y1 y2)^d, whose file is
    # refused past MAX_DEGREE, so the command refuses to write it; at the cap it round-trips
    half = MAX_DEGREE // 2
    for d in (half, half + 100):
        p1, p2 = tmp_path / "p1.map", tmp_path / "p2.map"
        p1.write_text(f"map {kind}\ndim 2\nm ({d},0) 1 1 = 1\n")
        p2.write_text(f"map {kind}\ndim 2\nm (0,{d}) 1 2 = 1\n")
        code, out, err = run_cli(capsys, "bracket", str(p1), str(p2), "--op", op,
                                 "--algebra", "abelian(2)", *flags)
        if 2 * d <= MAX_DEGREE:
            assert (code, err) == (0, "")
            text = json.loads(out)["result_mapfile"] if flags else out
            assert text == f"map {kind}\ndim 2\nm ({d},{d}) 1 2 = 1\n"
            assert serialize_map(parse_map(text)) == text
        else:
            assert (code, out) == (2, "")
            assert err == (f"error: {op} result of degree {2 * d} exceeds "
                           f"MAX_DEGREE = {MAX_DEGREE}\n")


def test_builtin_name_wins_over_a_file_of_that_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sl2").write_text("algebra shadow\ndim 2\nkind lie\n")
    code, out, _ = run_cli(capsys, "der", "sl2")
    assert code == 0 and out.startswith("algebra sl2 (dim 3, kind lie)\n")
    code, out, _ = run_cli(capsys, "der", "./sl2")
    assert code == 0 and out.startswith("algebra shadow (dim 2, kind lie)\n")


@pytest.mark.parametrize("name", ["abelian(0)", f"abelian({MAX_DIM + 1})"])
def test_abelian_out_of_range_names_the_range(capsys, tmp_path, monkeypatch, name):
    # with no file of that name, the builtin's range error is the message, not
    # "no such file"; a file of that name is still read
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "der", name)
    assert (code, out, err) == (2, "", f"error: {name}: abelian(n) needs 1 <= n <= {MAX_DIM}\n")
    (tmp_path / name).write_text("algebra wide\ndim 2\nkind lie\n")
    code, out, _ = run_cli(capsys, "der", name)
    assert code == 0 and out.startswith("algebra wide (dim 2, kind lie)\n")


def test_other_unknown_names_stay_missing_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("abelian(x)", "abelian(2", "heisenberg(5)"):
        code, _, err = run_cli(capsys, "der", name)
        assert (code, err) == (2, f"error: {name}: no such file or builtin algebra\n")


def test_solvers_ignore_the_declared_kind(capsys, tmp_path):
    # der, bider and bracket never read `kind`: constants that fail the lie
    # check give the same bases and brackets declared lie or generic
    body = "dim 3\nc 1 2 3 = 1\nc 2 1 3 = -1\nc 1 3 1 = 2\nc 3 3 1 = 1\nc 2 3 2 = 1/2\n"
    files = {}
    for kind in ("lie", "generic"):
        path = tmp_path / f"{kind}.alg"
        path.write_text(f"algebra a\nkind {kind}\n{body}")
        files[kind] = str(path)
    code, out, _ = run_cli(capsys, "check", files["lie"])
    assert code == 1 and "FAIL" in out
    rng = random.Random(5)
    maps = []
    for idx in range(2):
        path = tmp_path / f"b{idx}.map"
        path.write_text(serialize_map(random_tensor(rng, 3)))
        maps.append(str(path))

    def result(argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        data = json.loads(out)
        data.pop("kind", None)
        return data

    for argv in (["der", "{}"], ["bider", "{}", "--side", "right"],
                 ["bider", "{}", "--side", "left"], ["bider", "{}", "--side", "both"],
                 ["bracket", *maps, "--op", "rhd", "--algebra", "{}"],
                 ["bracket", *maps, "--op", "lhd", "--algebra", "{}"]):
        as_lie, as_generic = (result([a.format(files[k]) for a in argv])
                              for k in ("lie", "generic"))
        assert as_lie == as_generic, argv


def test_help_says_which_commands_are_cheap_and_which_is_expensive(capsys):
    # MAX_DIM bounds allocation, not time: the solves stay cheap near it, verify does not
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"(one exact solve, fast up to dim {MAX_DIM})" in text
    assert f"(exact solves: under a second at dim 8, seconds at {MAX_DIM})" in text
    assert ("(the expensive command: up to min(CPUs, 7) processes; on 2 CPUs "
            "about 31-34 s wall and 38-41 s CPU at dim 8)") in text
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("That cuts wall time, not the total CPU time. With one CPU, or without os.fork "
            "(Windows), they run in turn in one process.") in text


def _alone(argv, columns="80"):
    """(exit code, stdout, stderr) of `python -m biderlie.cli *argv` in a fresh process,
    importing the package these tests import."""
    env = {**os.environ, "COLUMNS": columns,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "biderlie.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once():
    cli.build_parser.cache_clear()
    for argv in (["der", "L2"], ["check", "sl2", "--json"], ["example", "heisenberg"]) * 3:
        assert main(argv) == 0
    with pytest.raises(SystemExit):
        main(["bracket", "--op", "rhd"])
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_calls_in_one_process_print_what_each_prints_alone(capsys, tmp_path, monkeypatch):
    # the kept parser carries nothing from one call to the next: a usage error and
    # --help between two brackets change neither, nor what a later command prints
    monkeypatch.setenv("COLUMNS", "80")
    A, b1, b2 = heisenberg_example_maps()
    alg, m1, m2 = tmp_path / "h3.alg", tmp_path / "b1.map", tmp_path / "b2.map"
    alg.write_text(serialize_algebra(A))
    m1.write_text(serialize_map(b1))
    m2.write_text(serialize_map(b2))
    bracket = ["bracket", str(m1), str(m2), "--algebra", str(alg), "--op"]
    calls = [bracket + ["rhd"], bracket + ["xyz"], ["--help"], ["verify", "heisenberg3", "--json"],
             bracket + ["rhd"]]
    got = [_in_process(capsys, argv) for argv in calls]
    assert [code for code, _, _ in got] == [0, 2, 0, 0, 0]
    assert got == [_alone(argv) for argv in calls]
    assert got[0] == got[-1] and got[0][1].startswith("map polyright\ndim 3\n")


def test_help_takes_its_width_when_printed(capsys, monkeypatch):
    for columns in ("60", "120", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["verify", "--help"]):
            assert _in_process(capsys, argv) == _alone(argv, columns)


def test_a_command_patched_after_the_first_call_is_the_one_that_runs(monkeypatch):
    assert main(["check", "L2"]) == 0
    ops = []
    monkeypatch.setattr(cli, "cmd_bracket", lambda args: ops.append(args.op) or 7)
    assert main(["bracket", "a.map", "b.map", "--op", "lhd", "--algebra", "L2"]) == 7
    assert ops == ["lhd"]


# [e1,e1] = -3/4 e2, [e1,e2] = 5/6 e3, [e2,e1] = 1/2 e3: Der and every biderivation
# space of this algebra are over the denominator 9 (Der holds -16/9)
_MIXED = Algebra.from_entries("mixed", 3, {(0, 0, 1): F(-3, 4), (0, 1, 2): F(5, 6),
                                           (1, 0, 2): F(1, 2)}, "generic")


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("abelian(1)", "abelian(5)", "mixed.alg"))
def test_der_and_bider_print_what_the_fraction_view_prints(capsys, tmp_path, monkeypatch, name):
    # text and --json, byte for byte, against the writers that read `.vectors` and `.data`
    monkeypatch.chdir(tmp_path)
    Path("mixed.alg").write_text(serialize_algebra(_MIXED))
    A = parse_algebra(Path(name).read_text()) if name.endswith(".alg") else builtin(name)
    for flags in ([], ["--json"]):
        assert run_cli(capsys, "der", name, *flags) == (0, der_output_reference(A, bool(flags)), "")
        for side in ("right", "left", "both"):
            assert run_cli(capsys, "bider", name, "--side", side, *flags) == (
                0, bider_output_reference(A, side, bool(flags)), "")


def test_l3_and_the_mixed_algebra_have_der_denominators_other_than_one():
    # so the writers above print fractions, not only integers
    assert derivation_space(builtin("L3")).basis.den == 2
    assert derivation_space(_MIXED).basis.den == 9


def test_writers_read_the_integer_form_alone(capsys, tmp_path, monkeypatch):
    # der, bider, bracket and both serializers print with `Matrix.data` (and so
    # `SubspaceBasis.vectors` and `BilinearTensor.t`) unreadable, and print the same
    monkeypatch.chdir(tmp_path)
    B = BilinearTensor.from_entries(3, {(0, 0, 2): F(-3, 4), (1, 2, 0): F(2, 5), (2, 1, 1): 3})
    P = PolyRightMap(3, {(1, 0, 0): Matrix([[1, 0, 0], [0, F(1, 2), 0], [0, 0, F(-3, 4)]]),
                         (0, 2, 1): Matrix([[0, 0, 0], [0, 0, 0], [-2, F(1, 3), 0]])})
    runs = [["der", alg, *flags] for alg in ("L3", "mixed.alg") for flags in ([], ["--json"])]
    runs += [["bider", alg, "--side", side, *flags] for alg in ("L3", "mixed.alg")
             for side in ("right", "left", "both") for flags in ([], ["--json"])]
    runs += [["bracket", m1, m2, "--op", op, "--algebra", "mixed.alg", *flags]
             for op in ("rhd", "lhd") for m1, m2 in ((f"p-{op}.map", "t.map"), ("t.map", "t.map"))
             for flags in ([], ["--json"])]

    def outputs():
        texts = [serialize_algebra(_MIXED), serialize_map(B), serialize_map(P),
                 serialize_map(P.transpose())]
        for name, text in zip(("mixed.alg", "t.map", "p-rhd.map", "p-lhd.map"), texts):
            Path(name).write_text(text)
        return texts, [run_cli(capsys, *argv) for argv in runs]

    def refuse(self):
        raise AssertionError("a writer read the Fraction view")

    with monkeypatch.context() as patched:
        patched.setattr(Matrix, "data", property(refuse))
        blind = outputs()
    assert blind == outputs()
    assert all(code == 0 for code, _, _ in blind[1])
