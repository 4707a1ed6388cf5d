"""Plain-text file formats for algebras, bilinear tensors, and poly maps.

Algebra files:

    # comment
    algebra heisenberg3
    dim 3
    kind lie
    c 1 2 3 = 1
    c 2 1 3 = -1

One header of each kind (algebra / dim / kind) before any body line; body
lines give one structure constant each with 1-based indices; omitted
entries are zero; duplicate index triples are an error. In algebra and map
files alike, `dim` is at most `algebras.MAX_DIM`; the total degree of a
monomial in a poly map file is at most `algebras.MAX_DEGREE`.

Map files:

    map bilinear            map polyright (or polyleft)
    dim 3                   dim 3
    t 1 2 3 = 1/2           m (0,1,0) 1 2 = 1/2

A `t` line is one tensor entry, as a `c` line is one entry of the product
tensor of an algebra: both are read by one helper and written from the
tensor's nonzero entries by `entry_lines`. An `m` line is entry (row, col)
of the coefficient matrix attached to the monomial exponent vector, written
without spaces. Every file is read into integer form over the lcm of its
entries' denominators: an algebra's product tensor and a bilinear tensor
into one n^2 x n `Matrix`, a poly map into its raw form, which is the map
(`brackets`). An entry reads as `Fraction(tok)` would, but a plain `p` or
`p/q` by `int` with no `Fraction` built, and one with more than `MAX_DIGITS`
= 640 digits in its numerator or denominator as written is refused before
any integer is built.
Each distinct value token, and in a map file each distinct exponent vector,
is parsed once per file; an `m` line's (row, col) pair spelled `1`..`n` is
looked up in a table built at the `dim` header, and any other spelling (`01`,
`+2`) is parsed. Only nonzero entries are written. Every writer, of these files and of
the CLI's `der` and `bider` output, prints an integer entry x of a form over den
through `Rationals`, as `str(Fraction(x, den))` would, with no `Fraction` built.
Serialization is canonical: sorted indices, normalized rationals, so
parse(serialize(x)) == x and serialized forms are diffable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress

from .algebras import KINDS, MAX_DEGREE, MAX_DIM, Algebra
from .bilinear import BilinearTensor
from .brackets import PolyLeftMap, PolyRightMap
from .linalg import Matrix

MAP_KINDS = ("bilinear", "polyright", "polyleft")
MAX_DIGITS = 640  # the most digits of a literal's numerator or denominator, as written
# p or p/q in ASCII digits, at most MAX_DIGITS each: `int` reads them under any digit limit
_PLAIN = re.compile(rf"([-+]?[0-9]{{1,{MAX_DIGITS}}})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")


class FormatError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no else message)


def _lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body.split()


def _digits(tok: str) -> int:
    """The most digits of the unreduced numerator or denominator of `Fraction(tok)`: p/q those
    of p or q, I.F e X those of I F times 10^(X - len F) or of 10^(len F - X). Only 4 digits
    of X are read, as |X| > 999 is past the cap; what is no exponent, Fraction refuses."""
    if "/" in tok:
        return max(sum(map(str.isdecimal, part)) for part in tok.split("/", 1))
    mantissa, _, x = tok.lower().partition("e")
    digits = x.replace("_", "").lstrip("+-").lstrip("0")[:4]
    shift = (int(digits) if digits.isdecimal() else 0) * (-1 if x[:1] == "-" else 1)
    shift -= sum(map(str.isdecimal, mantissa.partition(".")[2]))
    return max(sum(map(str.isdecimal, mantissa)) + max(shift, 0), 1 - shift)


def _ratio(tok: str, line_no: int) -> tuple[int, int]:
    """`Fraction(tok)` as (numerator, denominator), a plain literal by `int` and one `gcd`."""
    m = _PLAIN.fullmatch(tok)
    if m and (q := int(m[2] or 1)):
        g = math.gcd(p := int(m[1]), q)
        return p // g, q // g
    if _digits(tok) > MAX_DIGITS:
        raise FormatError(f"literal over {MAX_DIGITS} digits in numerator or denominator", line_no)
    try:
        return Fraction(tok).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"not a rational literal: {tok!r}", line_no) from None


def _index(tok: str, line_no: int, dim: int, what: str = "index") -> int:
    try:
        i = int(tok)
    except ValueError:
        raise FormatError(f"not an integer {what}: {tok!r}", line_no) from None
    if not (1 <= i <= dim):
        raise FormatError(f"{what} {i} out of range 1..{dim}", line_no)
    return i - 1


def _header(toks: list[str], line_no: int, seen, choices=(), what: str = "name") -> str:
    """`<head> <value>`'s value, one of `choices` if given; `seen` is the one read before."""
    if seen is not None:
        raise FormatError(f"duplicate {toks[0]} header", line_no)
    if len(toks) != 2 or choices and toks[1] not in choices:
        raise FormatError(f"expected: {toks[0]} <{'|'.join(choices) or what}>", line_no)
    return toks[1]


def _dim(toks: list[str], line_no: int, dim: int | None) -> int:
    """The dimension a `dim <n>` header declares; `dim` is the one read before, if any."""
    tok = _header(toks, line_no, dim, what="n")
    try:
        n = int(tok)
    except ValueError:
        raise FormatError(f"not an integer dim: {tok!r}", line_no) from None
    if not 1 <= n <= MAX_DIM:
        raise FormatError(f"dim must be positive and at most {MAX_DIM}, got {n}", line_no)
    return n


def _value(tok: str, line_no: int, values: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """`_ratio(tok)`, read once per distinct token: `values` holds those read before."""
    v = values.get(tok)
    if v is None:
        v = values[tok] = _ratio(tok, line_no)
    return v


def _integer_form(size: int, entries: dict[int, tuple[int, int]]) -> tuple[int, list[int]]:
    """Entries {position: (p, q)} as the lcm d of their qs and `size` integers, d p / q at
    each position and 0 elsewhere."""
    den = math.lcm(*{q for _, q in entries.values()})
    ints = [0] * size
    for at, (p, q) in entries.items():
        ints[at] = p * (den // q)
    return den, ints


def _entry(toks: list[str], line_no: int, dim: int, entries: dict[int, tuple[int, int]],
           values: dict[str, tuple[int, int]]) -> None:
    """Add the tensor entry of a `c` or `t` line, `<head> i j k = p/q`, to `entries` as
    (p, q) at its position (i n + j) n + k."""
    head = toks[0]
    if len(toks) != 6 or toks[4] != "=":
        raise FormatError(f"expected: {head} i j k = p/q", line_no)
    i, j, k = (_index(tok, line_no, dim) for tok in toks[1:4])
    at = (i * dim + j) * dim + k
    if at in entries:
        raise FormatError(f"duplicate entry {head} {i + 1} {j + 1} {k + 1}", line_no)
    entries[at] = _value(toks[5], line_no, values)


def _tensor(dim: int, entries: dict[int, tuple[int, int]]) -> BilinearTensor:
    """The tensor of the entries `_entry` read, in integers: one `Matrix._of`."""
    return BilinearTensor._of(dim, Matrix._of(dim * dim, dim, *_integer_form(dim ** 3, entries)))


class Rationals(dict):
    """x -> the text of `str(Fraction(x, den))` for one denominator den > 0, the one
    place a writer turns an integer entry into text: each distinct x is reduced once."""

    def __init__(self, den: int):
        self.den = den

    def __missing__(self, x: int) -> str:
        g = math.gcd(x, den := self.den)
        text = self[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
        return text


def text_rows(m: Matrix) -> list[list[str]]:
    """The rows of m, each entry as `str(Fraction)` writes it, read from the integer form."""
    text, c = Rationals(m.den).__getitem__, m.cols
    return [list(map(text, m.ints[p:p + c])) for p in range(0, m.rows * c, c)]


def entry_lines(B: BilinearTensor, head: str) -> list[str]:
    """One `<head> i j k = p/q` line per nonzero entry of B, 1-based, in index order."""
    n, ints, text = B.dim, B.matrix.ints, Rationals(B.matrix.den)
    return [f"{head} {p // n // n + 1} {p // n % n + 1} {p % n + 1} = {text[x]}"
            for p, x in compress(enumerate(ints), ints)]


def parse_algebra(text: str) -> Algebra:
    """Parse an algebra file; errors carry the offending line number."""
    name: str | None = None
    dim: int | None = None
    kind: str | None = None
    entries: dict[int, tuple[int, int]] = {}
    values: dict[str, tuple[int, int]] = {}
    for line_no, toks in _lines(text):
        head = toks[0]
        if head == "algebra":
            name = _header(toks, line_no, name)
        elif head == "dim":
            dim = _dim(toks, line_no, dim)
        elif head == "kind":
            kind = _header(toks, line_no, kind, KINDS)
        elif head == "c":
            if name is None or dim is None or kind is None:
                raise FormatError("structure constants before the algebra/dim/kind headers",
                                  line_no)
            _entry(toks, line_no, dim, entries, values)
        else:
            raise FormatError(f"unrecognized directive {head!r}", line_no)
    if name is None or dim is None or kind is None:
        raise FormatError("missing algebra, dim, or kind header")
    return Algebra(name, dim, _tensor(dim, entries), kind)


def serialize_algebra(A: Algebra) -> str:
    lines = [f"algebra {A.name}", f"dim {A.dim}", f"kind {A.kind}"]
    return "\n".join(lines + entry_lines(A.product, "c")) + "\n"


def _parse_exponents(tok: str, line_no: int, dim: int) -> tuple[int, ...]:
    if not (tok.startswith("(") and tok.endswith(")")):
        raise FormatError(f"expected a (a1,...,an) exponent vector, got {tok!r}", line_no)
    parts = tok[1:-1].split(",")
    if len(parts) != dim:
        raise FormatError(f"exponent vector needs {dim} entries, got {len(parts)}", line_no)
    out = []
    for p in parts:
        try:
            e = int(p)
        except ValueError:
            raise FormatError(f"not an integer exponent: {p!r}", line_no) from None
        if e < 0:
            raise FormatError(f"negative exponent {e}", line_no)
        out.append(e)
    if sum(out) > MAX_DEGREE:
        raise FormatError(f"monomial degree {sum(out)} exceeds {MAX_DEGREE}", line_no)
    return tuple(out)


def parse_map(text: str):
    """Parse a map file into a BilinearTensor, PolyRightMap, or PolyLeftMap: a poly map is
    made by `_of` from its blocks, each n * n row-major integers over one denominator."""
    map_kind: str | None = None
    dim: int | None = None
    entries: dict[int, tuple[int, int]] = {}  # position: p, q
    values: dict[str, tuple[int, int]] = {}  # each value token is read once
    blocks: dict[tuple[int, ...], int] = {}  # each monomial's block, in order of first use
    exponents: dict[str, int] = {}  # each exponent token is parsed once, to its block
    cells: dict[tuple[str, str], int] = {}  # (row, col) tokens "1".."n": r n + c
    for line_no, toks in _lines(text):
        head = toks[0]
        if head == "map":
            map_kind = _header(toks, line_no, map_kind, MAP_KINDS)
        elif head == "dim":
            dim = _dim(toks, line_no, dim)
            cells = {(str(r + 1), str(c + 1)): r * dim + c for r in range(dim) for c in range(dim)}
        elif head == "t":
            if map_kind is None or dim is None:
                raise FormatError("entries before the map/dim headers", line_no)
            if map_kind != "bilinear":
                raise FormatError(f"t lines belong to bilinear maps, not {map_kind}", line_no)
            _entry(toks, line_no, dim, entries, values)
        elif head == "m":
            if map_kind is None or dim is None:
                raise FormatError("entries before the map/dim headers", line_no)
            if map_kind == "bilinear":
                raise FormatError("m lines belong to poly maps, not bilinear", line_no)
            if len(toks) != 6 or toks[4] != "=":
                raise FormatError("expected: m (a1,...,an) r c = p/q", line_no)
            b = exponents.get(toks[1])
            if b is None:
                alpha = _parse_exponents(toks[1], line_no, dim)
                b = exponents[toks[1]] = blocks.setdefault(alpha, len(blocks))
            i = cells.get((toks[2], toks[3]))
            if i is None:
                i = _index(toks[2], line_no, dim, "row") * dim + _index(toks[3], line_no, dim, "col")
            at = b * dim * dim + i
            if at in entries:
                raise FormatError("duplicate poly map entry", line_no)
            entries[at] = _value(toks[5], line_no, values)
        else:
            raise FormatError(f"unrecognized directive {head!r}", line_no)
    if map_kind is None or dim is None:
        raise FormatError("missing map or dim header")
    if map_kind == "bilinear":
        return _tensor(dim, entries)
    nn, cls = dim * dim, PolyRightMap if map_kind == "polyright" else PolyLeftMap
    den, ints = _integer_form(len(blocks) * nn, entries)
    return cls._of(dim, den, {a: ints[b * nn:b * nn + nn] for a, b in blocks.items()})


def serialize_map(obj) -> str:
    """Canonical text for a tensor or poly map; inverse of `parse_map`. A poly map writes
    the nonzero entries of its blocks, in monomial order, each in lowest terms."""
    if isinstance(obj, BilinearTensor):
        return "\n".join(["map bilinear", f"dim {obj.dim}"] + entry_lines(obj, "t")) + "\n"
    if not isinstance(obj, (PolyRightMap, PolyLeftMap)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    n, blocks = obj.dim, obj.blocks
    text, at = Rationals(obj.den), [f" {r + 1} {c + 1} = " for r in range(n) for c in range(n)]
    lines = [f"map {('polyleft', 'polyright')[obj._frozen]}", f"dim {n}"]
    for alpha in sorted(blocks):
        head, block = str(alpha).replace(" ", "") if n > 1 else f"({alpha[0]})", blocks[alpha]
        lines += [f"m {head}{pos}{text[x]}" for pos, x in compress(zip(at, block), block)]
    return "\n".join(lines) + "\n"
