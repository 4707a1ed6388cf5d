import random
from fractions import Fraction

import pytest

from biderlie import (BilinearTensor, FormatError, PolyLeftMap, PolyRightMap, builtin,
                      parse_algebra, parse_map, serialize_algebra, serialize_map)
from biderlie.algebras import MAX_DIM, Algebra
from biderlie.cli import heisenberg_example_maps
from biderlie.linalg import Matrix

F = Fraction

HEISENBERG_FILE = """\
# three-dimensional nilpotent example
algebra heisenberg3
dim 3
kind lie
c 1 2 3 = 1
c 2 1 3 = -1
"""


def test_parse_heisenberg_file():
    A = parse_algebra(HEISENBERG_FILE)
    assert A == builtin("heisenberg3")
    assert A.name == "heisenberg3"


def test_parse_empty_body_is_abelian():
    A = parse_algebra("algebra a3\ndim 3\nkind lie\n")
    assert A == builtin("abelian(3)")


def test_duplicate_entry_reports_line():
    text = HEISENBERG_FILE + "c 1 2 3 = 2\n"
    with pytest.raises(FormatError) as exc:
        parse_algebra(text)
    assert exc.value.line_no == 7
    assert "duplicate" in str(exc.value)


@pytest.mark.parametrize("text,fragment", [
    ("dim 3\nkind lie\nc 1 1 1 = 1\n", "before the algebra"),
    ("algebra x\ndim 3\nkind lie\nc 4 1 1 = 1\n", "out of range"),
    ("algebra x\ndim 3\nkind lie\nc 1 1 1 = pi\n", "rational"),
    ("algebra x\ndim 3\nkind weird\n", "kind"),
    ("algebra x\ndim 3\nkind lie\nc 1 1 = 1\n", "expected"),
    ("algebra x\ndim 0\nkind lie\n", "positive"),
    ("algebra x\nalgebra y\ndim 2\nkind lie\n", "duplicate"),
    ("algebra x\ndim 2\n", "missing"),
    ("frobnicate 3\n", "unrecognized"),
])
def test_algebra_parse_errors(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_algebra(text)
    assert fragment in str(exc.value)


def test_algebra_round_trip_builtins():
    for name in ("L1", "L2", "L3", "L4", "heisenberg3", "sl2", "abelian(4)"):
        A = builtin(name)
        again = parse_algebra(serialize_algebra(A))
        assert again == A
        assert again.name == A.name
        assert serialize_algebra(again) == serialize_algebra(A)


def test_bilinear_map_round_trip():
    _, b1, b2 = heisenberg_example_maps()
    for b in (b1, b2):
        text = serialize_map(b)
        assert parse_map(text) == b
        assert serialize_map(parse_map(text)) == text


def test_poly_map_round_trip():
    rng = random.Random(6)
    terms = {}
    for alpha in ((0, 0, 0), (0, 1, 0), (2, 0, 1)):
        terms[alpha] = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(3)] for _ in range(3)])
    for cls in (PolyRightMap, PolyLeftMap):
        p = cls(3, terms)
        text = serialize_map(p)
        again = parse_map(text)
        assert type(again) is cls
        assert again == p
        assert serialize_map(again) == text


def test_map_headers_and_kinds():
    t = parse_map("map bilinear\ndim 2\nt 1 2 1 = 1/2\n")
    assert isinstance(t, BilinearTensor)
    assert t.t[0][1][0] == F(1, 2)
    p = parse_map("map polyright\ndim 2\nm (1,0) 2 2 = -3\n")
    assert isinstance(p, PolyRightMap)
    assert p.terms[(1, 0)].data[1][1] == F(-3)
    l = parse_map("map polyleft\ndim 2\nm (0,2) 1 1 = 1\n")
    assert isinstance(l, PolyLeftMap)


@pytest.mark.parametrize("text,fragment", [
    ("map bilinear\ndim 2\nm (1,0) 1 1 = 1\n", "poly"),
    ("map polyright\ndim 2\nt 1 1 1 = 1\n", "bilinear"),
    ("map polyright\ndim 2\nm (1,0,0) 1 1 = 1\n", "entries"),
    ("map polyright\ndim 2\nm (1,-1) 1 1 = 1\n", "negative"),
    ("map polyright\ndim 2\nm 1,0 1 1 = 1\n", "exponent"),
    ("map polyright\ndim 2\nm (1,0) 3 1 = 1\n", "out of range"),
    ("map polyright\ndim 2\nm (1,0) 1 1 = 1\nm (1,0) 1 1 = 2\n", "duplicate"),
    ("map nonsense\ndim 2\n", "map"),
    ("dim 2\nt 1 1 1 = 1\n", "before the map"),
    ("map bilinear\n", "missing"),
])
def test_map_parse_errors(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_map(text)
    assert fragment in str(exc.value)


def test_error_lines_are_one_based():
    with pytest.raises(FormatError) as exc:
        parse_map("map bilinear\ndim 2\n# fine\nt 9 1 1 = 1\n")
    assert exc.value.line_no == 4


def test_comments_and_blank_lines_ignored():
    text = "\n# header comment\nalgebra x\n\ndim 2   # trailing\nkind generic\n\n"
    A = parse_algebra(text)
    assert A.dim == 2 and A.kind == "generic"


def test_serialize_rejects_unknown():
    with pytest.raises(TypeError):
        serialize_map(42)


def test_dim_cap_refuses_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated a table for a dim over the cap")

    monkeypatch.setattr(Algebra, "from_entries", refuse)
    monkeypatch.setattr(BilinearTensor, "from_entries", refuse)
    assert MAX_DIM >= 8
    for dim in (MAX_DIM + 1, 100000):
        with pytest.raises(FormatError) as exc:
            parse_algebra(f"algebra big\ndim {dim}\nkind lie\nc 1 1 1 = 1\n")
        assert exc.value.line_no == 2 and str(MAX_DIM) in str(exc.value)
        for kind, entry in (("bilinear", "t 1 1 1 = 1"), ("polyright", "m (1) 1 1 = 1")):
            with pytest.raises(FormatError) as exc:
                parse_map(f"map {kind}\ndim {dim}\n{entry}\n")
            assert exc.value.line_no == 2
        with pytest.raises(ValueError, match=str(MAX_DIM)):
            builtin(f"abelian({dim})")


def test_dim_cap_admits_the_cap():
    assert parse_algebra(f"algebra top\ndim {MAX_DIM}\nkind lie\n") == builtin(f"abelian({MAX_DIM})")
    assert parse_map(f"map bilinear\ndim {MAX_DIM}\n").dim == MAX_DIM
