import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biderlie import (BUILTIN_NAMES, BilinearTensor, FormatError, PolyLeftMap, PolyRightMap,
                      builtin, parse_algebra, parse_map, serialize_algebra, serialize_map)
from biderlie.algebras import MAX_DEGREE, MAX_DIM, Algebra
from biderlie.cli import heisenberg_example_maps
from biderlie.formats import MAX_DIGITS, Rationals, _ratio, entry_lines, text_rows
from biderlie.linalg import Matrix

from oracles import (entry_lines_reference, serialize_algebra_reference,
                     serialize_bilinear_reference, serialize_map_per_entry,
                     serialize_map_reference)

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
    (HEISENBERG_FILE + "c 01 2 3 = 1\n", "line 7: duplicate entry c 1 2 3"),  # two spellings
    (HEISENBERG_FILE + "c 1 +2 3 = 1\n", "line 7: duplicate entry c 1 2 3"),
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


def test_degree_cap_refuses_huge_exponents():
    # before the cap this parsed, and evaluate at 2 e_1 computed 2^99999999999
    assert MAX_DEGREE >= 100
    for exps in ("(99999999999,0)", f"({MAX_DEGREE + 1},0)", f"({MAX_DEGREE},1)",
                 f"({MAX_DEGREE // 2 + 1},{MAX_DEGREE // 2})"):
        for kind in ("polyright", "polyleft"):
            with pytest.raises(FormatError) as exc:
                parse_map(f"map {kind}\ndim 2\nm (0,1) 1 1 = 1\nm {exps} 1 1 = 1\n")
            assert exc.value.line_no == 4 and str(MAX_DEGREE) in str(exc.value)


def test_degree_cap_admits_the_cap():
    half = MAX_DEGREE // 2
    for exps in ((MAX_DEGREE, 0), (half, MAX_DEGREE - half)):
        text = f"map polyright\ndim 2\nm ({exps[0]},{exps[1]}) 1 2 = 1/3\n"
        p = parse_map(text)
        assert p.degree() == MAX_DEGREE and serialize_map(p) == text
        assert p.evaluate((F(1), F(0)), (F(1), F(1))) == (F(0), F(0))
        assert p.evaluate((F(0), F(1)), (F(1), F(1))) == (F(1, 3), F(0))


# --- poly maps through their integer form -------------------------------------

@st.composite
def poly_maps(draw):
    """A poly map of dim 1-4 with denominators up to 7 and negative entries. The
    raw form is given as it is, in the order drawn and scaled by k (not in lowest
    terms when k > 1, which `_of` reduces), or the map is built from the
    `Fraction` matrices it stands for."""
    n = draw(st.integers(1, 4))
    cls = draw(st.sampled_from((PolyRightMap, PolyLeftMap)))
    den, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4, unique=True))
    ints = {a: draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n).filter(any))
            for a in alphas}
    if draw(st.booleans()):
        return cls(n, {a: Matrix([[F(flat[r * n + c], den) for c in range(n)] for r in range(n)])
                       for a, flat in ints.items()})
    return cls._of(n, k * den, {a: [k * x for x in flat] for a, flat in ints.items()})


@settings(max_examples=200, deadline=None)
@given(poly_maps())
def test_serialize_map_matches_the_fraction_reference(P):
    text = serialize_map(P)
    assert text == serialize_map_reference(P)
    again = parse_map(text)
    assert type(again) is type(P) and again == P
    assert serialize_map(again) == text


def test_parse_drops_zero_entries_and_all_zero_monomials():
    for kind, cls in (("polyright", PolyRightMap), ("polyleft", PolyLeftMap)):
        base = f"map {kind}\ndim 2\nm (1,0) 1 2 = 1/2\nm (0,1) 2 1 = -3\n"
        zeros = "m (1,0) 2 2 = 0\nm (2,0) 1 1 = 0\nm (2,0) 2 1 = 0/5\n"
        P = parse_map(base + zeros)
        assert type(P) is cls and P == parse_map(base)
        assert P.support() == {(1, 0), (0, 1)}
        # one denominator, the lcm of the entry denominators
        assert P.monomials == ((0, 1), (1, 0))
        assert (P.den, P.blocks) == (2, {(1, 0): [0, 1, 0, 0], (0, 1): [0, 0, -6, 0]})
        assert serialize_map(P) == serialize_map(parse_map(base))
        # a raw form with an all-zero block, over 6 or over 12 with all entries even, or
        # with its blocks in another order is P's, hash included
        for den, blocks in ((2, {(2, 0): [0] * 4, (1, 0): [0, 1, 0, 0], (0, 1): [0, 0, -6, 0]}),
                            (6, {(1, 0): [0, 3, 0, 0], (0, 1): [0, 0, -18, 0]}),
                            (12, {(1, 0): [0, 6, 0, 0], (0, 1): [0, 0, -36, 0]}),
                            (2, {(0, 1): [0, 0, -6, 0], (1, 0): [0, 1, 0, 0]})):
            twin = cls._of(2, den, blocks)
            assert twin == P and hash(twin) == hash(P) and (twin.den, twin.blocks) == (
                P.den, P.blocks)


def test_parse_of_all_zero_entries_is_the_zero_map():
    for kind, cls in (("polyright", PolyRightMap), ("polyleft", PolyLeftMap)):
        Z = parse_map(f"map {kind}\ndim 3\nm (1,0,0) 1 1 = 0\nm (0,0,0) 2 3 = -0\n")
        assert type(Z) is cls and Z == cls.zero(3)
        assert Z.is_zero() and Z.support() == set() and Z.degree() == -1
        assert serialize_map(Z) == f"map {kind}\ndim 3\n"


@pytest.mark.parametrize("tok", ["+2", "-0", "0.5", "3/6", "-7/14", "1e2", "-1.25"])
def test_parse_reads_entries_as_fraction_does(tok):
    P = parse_map(f"map polyright\ndim 2\nm (1,0) 1 2 = {tok}\n")
    # y = e1 gives the matrix of the (1,0) term, x = e2 its second column
    assert P.evaluate((F(0), F(1)), (F(1), F(0))) == (F(tok), F(0))
    assert P.is_zero() == (F(tok) == 0)
    if F(tok):
        assert P.terms[(1, 0)].data[0][1] == F(tok)
        assert serialize_map(P) == f"map polyright\ndim 2\nm (1,0) 1 2 = {F(tok)}\n"


# more than MAX_DIGITS digits in a numerator or denominator: refused before any int is built
OVER_CAP = ("-" + "7" * 700, "1/" + "7" * 700, "1" * 5000, "1/" + "7" * 5000)
CAP_REFUSAL = f"literal over {MAX_DIGITS} digits in numerator or denominator"
# plain ASCII p and p/q, read by `int`, tokens only `Fraction` reads or refuses, and the cap;
# the README's and the CI's loose files' literals among them
LITERALS = ["3", "+3", "-0", "00012/0004", "-6/8", "3/-4", "1/0", "0.5", "1e3", "1_0", "\u0663",
            "3/", "/4", "pi", "+-3", "1/+2", "-0/7", "\u00b2", "2/4", "2/2", "-1.0", "1/2", "-3",
            *OVER_CAP]


def _reading(tok):
    """tok's Fraction and None, or None and the message that refuses it."""
    if tok in OVER_CAP:
        return None, CAP_REFUSAL
    try:
        return F(tok), None
    except (ValueError, ZeroDivisionError):
        return None, f"not a rational literal: {tok!r}"


@pytest.mark.parametrize("tok", LITERALS, ids=lambda tok: ascii(tok)[:16])
def test_literals_read_as_fraction_reads_them(tok):
    # the integer path gives Fraction's numerator and denominator, or its refusal; a literal
    # past the cap is refused with the cap's message
    want, refusal = _reading(tok)
    text = f"map polyleft\ndim 2\nm (0,1) 2 2 = 1/3\nm (1,0) 1 2 = {tok}\n"
    if refusal:
        for read in (lambda: _ratio(tok, 4), lambda: parse_map(text)):
            with pytest.raises(FormatError) as exc:
                read()
            assert str(exc.value) == f"line 4: {refusal}"
            assert exc.value.line_no == 4
        return
    assert _ratio(tok, 4) == (want.numerator, want.denominator)
    P = parse_map(text)
    assert P.terms[(1, 0)].data[0][1] == want if want else P.monomials == ((0, 1),)
    assert P == PolyLeftMap(2, {(0, 1): Matrix([[0, 0], [0, F(1, 3)]]),
                                (1, 0): Matrix([[0, want], [0, 0]])})


@pytest.mark.parametrize("tok", LITERALS, ids=lambda tok: ascii(tok)[:16])
def test_tensor_literals_read_as_fraction_reads_them(tok):
    # algebra `c` lines and bilinear `t` lines read a value as `m` lines do
    want, refusal = _reading(tok)
    texts = {"c": f"algebra x\ndim 2\nkind generic\nc 2 2 1 = 1/3\nc 1 2 1 = {tok}\n",
             "t": f"map bilinear\ndim 2\nt 2 2 1 = 1/3\n# a comment\nt 1 2 1 = {tok}\n"}
    for head, text in texts.items():
        parse = parse_algebra if head == "c" else parse_map
        if refusal:
            with pytest.raises(FormatError) as exc:
                parse(text)
            assert str(exc.value) == f"line 5: {refusal}"
            assert exc.value.line_no == 5
            continue
        got = parse(text)
        B = got.product if head == "c" else got
        assert B == BilinearTensor.from_entries(2, {(1, 1, 0): F(1, 3), (0, 1, 0): want})
        assert B.t[0][1][0] == want


@pytest.mark.parametrize("tok", ["1e999999999", "-1E+700", "0." + "3" * 700, "0e999999999",
                                 "1e-999999999", "1e" + "0" * 10000 + "9999"],
                         ids=lambda tok: ascii(tok)[:16])
def test_literal_cap_refuses_huge_literals_at_once(tok):
    # Fraction would build 10^X (a 3.3-gigabit integer for the first) or parse 700 digits
    start = time.perf_counter()
    with pytest.raises(FormatError) as exc:
        _ratio(tok, 3)
    assert str(exc.value) == f"line 3: {CAP_REFUSAL}"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("at_cap,past_cap", [
    ("1e639", "1e640"),                          # numerator 10^X
    ("-1E-639", "-1E-640"),                      # denominator 10^-X
    ("7" * 639 + ".5", "7" * 640 + ".5"),        # numerator as written, over 10
    ("0." + "0" * 638 + "1", "0." + "0" * 639 + "1"),  # denominator 10^(digits after .)
    ("12.5e638", "12.5e639"),                    # 125 times 10^(X - 1)
    ("1/" + "3" * 640, "1/" + "3" * 641),        # the plain path's own bound
    ("+" + "3" * 640 + "/1", "+" + "3" * 641 + "/1"),
], ids=["exponent", "negative-exponent", "decimal", "fraction-digits", "mixed", "denominator",
        "numerator"])
def test_literal_cap_admits_640_digits_and_refuses_641(at_cap, past_cap):
    assert _ratio(at_cap, 1) == F(at_cap).as_integer_ratio()
    with pytest.raises(FormatError, match=f"line 2: {CAP_REFUSAL}"):
        _ratio(past_cap, 2)


def test_plain_literal_tensor_files_are_read_without_a_fraction(monkeypatch):
    # an algebra file and a bilinear map file as their serializers write them
    A = Algebra.from_entries("mixed", 3, {(0, 1, 2): F(-5, 6), (1, 0, 2): F(5, 6),
                                          (2, 2, 0): 7, (1, 2, 1): F(1, 2)}, "generic")
    B = BilinearTensor.from_entries(3, {(0, 0, 0): -1, (2, 1, 0): F(4, 3)})
    alg_text, map_text = serialize_algebra(A), serialize_map(B)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("built a Fraction while reading plain literals")

    monkeypatch.setattr(F, "__new__", staticmethod(refuse))
    again, tensor = parse_algebra(alg_text), parse_map(map_text)
    monkeypatch.undo()
    assert again == A and serialize_algebra(again) == alg_text
    assert tensor == B and serialize_map(tensor) == map_text


def test_plain_literals_are_read_without_a_fraction():
    # the text serialize_map writes holds only plain p and p/q, which parse by `int`
    P = PolyLeftMap(3, {(1, 0, 2): Matrix([[1, 0, F(-5, 6)], [0, F(1, 2), 0], [0, 0, -7]]),
                        (0, 0, 1): Matrix([[0, F(4, 3), 0], [0, 0, 0], [2, 0, 0]])})
    text = serialize_map(P)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("built a Fraction while reading plain literals")

    new = vars(F)["__new__"]
    F.__new__ = staticmethod(refuse)
    try:
        again = parse_map(text)
    finally:
        F.__new__ = new
    assert again == P and serialize_map(again) == text


def test_serialize_map_matches_the_per_entry_writer():
    # right and left maps of dims 1-7 with mixed denominators; all-zero coefficient
    # matrices are dropped by the constructor, as they are from a raw form that has
    # one, is not in lowest terms and lists its blocks in reverse order
    rng = random.Random("serialize-per-entry")
    for trial in range(70):
        n, cls = trial % 7 + 1, (PolyRightMap, PolyLeftMap)[trial % 2]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            density = rng.choice((0, 0.2, 0.6, 1))
            terms[alpha] = Matrix([[F(rng.randint(-20, 20), rng.randint(1, 9))
                                    if rng.random() < density else F(0) for _ in range(n)]
                                   for _ in range(n)])
        P = cls(n, terms)
        text = serialize_map(P)
        assert text == serialize_map_per_entry(P) == serialize_map_reference(P)
        assert parse_map(text) == P and type(parse_map(text)) is cls
        raw = cls._of(n, 3 * P.den, {(9,) * n: [0] * (n * n), **{
            a: [3 * x for x in flat] for a, flat in reversed(P.blocks.items())}})
        assert raw == P and serialize_map(raw) == serialize_map_per_entry(raw) == text


@pytest.mark.parametrize("body,fragment", [
    ("m (1,0) 1 1 = 0\nm (1,0) 1 1 = 1\n", "duplicate"),   # a zero entry still counts
    ("m (1,0) 1 1 = 1\nm (01,0) 1 1 = 2\n", "duplicate"),  # one monomial, two spellings
    ("m (1,0) 1 1 = 1\nm (1,0) 01 1 = 2\n", "duplicate"),  # one cell, two spellings
    ("m (1,0) 2 +1 = 1\nm (1,0) 2 1 = 2\n", "duplicate"),
    ("m (1,0) 1 1 = 1/0\n", "rational"),
    ("m (1,0) 1 1 = 1\nm (1,0) 1 3 = 1\n", "out of range"),
])
def test_poly_map_parse_errors_after_a_first_entry(body, fragment):
    with pytest.raises(FormatError) as exc:
        parse_map("map polyleft\ndim 2\n" + body)
    assert fragment in str(exc.value) and exc.value.line_no == 2 + body.count("\n")



@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
def test_rationals_write_what_str_of_fraction_writes(x, den):
    text = Rationals(den)
    assert text[x] == str(F(x, den)) and text[-x] == str(F(-x, den))
    assert text[x] is text[x]  # each distinct x is reduced once


@settings(max_examples=50)
@given(st.integers(1, 4), st.integers(1, 4), st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=16, max_size=16))
def test_text_rows_write_each_entry_of_the_fraction_rows(rows, cols, entries):
    m = Matrix._from_flat(rows, cols, entries[:rows * cols])
    assert text_rows(m) == [[str(x) for x in row] for row in m.data]


def _mixed_tensor():
    return BilinearTensor.from_entries(3, {(0, 0, 2): F(-3, 4), (1, 2, 0): F(2, 5),
                                           (2, 1, 1): 3, (2, 2, 2): F(-7, 6)})


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("abelian(1)", "abelian(5)"))
def test_tensor_writers_print_what_the_fraction_view_prints(name):
    A = builtin(name)
    assert serialize_algebra(A) == serialize_algebra_reference(A)
    assert serialize_map(A.product) == serialize_bilinear_reference(A.product)


def test_tensor_writers_print_rational_entries_as_the_fraction_view_does():
    # -3/4 and -7/6 over one denominator of 60, and random tensors with mixed denominators
    rng = random.Random("tensor-writers")
    tensors = [_mixed_tensor()] + [BilinearTensor.from_flat(
        [F(rng.randint(-9, 9), rng.randint(1, 8)) if rng.random() < 0.4 else 0
         for _ in range(n ** 3)], n) for n in (1, 2, 3, 4) for _ in range(3)]
    for B in tensors:
        assert entry_lines(B, "t") == entry_lines_reference(B, "t")
        assert serialize_map(B) == serialize_bilinear_reference(B)
        A = Algebra("mixed", B.dim, B, "generic")
        assert serialize_algebra(A) == serialize_algebra_reference(A)
        assert parse_algebra(serialize_algebra(A)) == A
