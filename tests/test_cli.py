import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from biderlie import builtin, parse_map, rhd, from_tensor, serialize_algebra
from biderlie.algebras import Algebra
from biderlie.bilinear import random_tensor
from biderlie.cli import heisenberg_example_maps, main
from biderlie.formats import serialize_map


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


def test_builtin_name_wins_over_a_file_of_that_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sl2").write_text("algebra shadow\ndim 2\nkind lie\n")
    code, out, _ = run_cli(capsys, "der", "sl2")
    assert code == 0 and out.startswith("algebra sl2 (dim 3, kind lie)\n")
    code, out, _ = run_cli(capsys, "der", "./sl2")
    assert code == 0 and out.startswith("algebra shadow (dim 2, kind lie)\n")


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
