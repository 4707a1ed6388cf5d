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
files alike, `dim` is at most `algebras.MAX_DIM`.

Map files:

    map bilinear            map polyright (or polyleft)
    dim 3                   dim 3
    t 1 2 3 = 1/2           m (0,1,0) 1 2 = 1/2

A `t` line is one tensor entry; an `m` line is entry (row, col) of the
coefficient matrix attached to the monomial exponent vector, written
without spaces. Serialization is canonical: sorted indices, normalized
rationals, so parse(serialize(x)) == x and serialized forms are diffable.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import KINDS, MAX_DIM, Algebra
from .bilinear import BilinearTensor
from .brackets import PolyLeftMap, PolyRightMap
from .linalg import Matrix

MAP_KINDS = ("bilinear", "polyright", "polyleft")


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


def _fraction(tok: str, line_no: int) -> Fraction:
    try:
        return Fraction(tok)
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


def _dim(tok: str, line_no: int) -> int:
    try:
        n = int(tok)
    except ValueError:
        raise FormatError(f"not an integer dim: {tok!r}", line_no) from None
    if not 1 <= n <= MAX_DIM:
        raise FormatError(f"dim must be positive and at most {MAX_DIM}, got {n}", line_no)
    return n


def parse_algebra(text: str) -> Algebra:
    """Parse an algebra file; errors carry the offending line number."""
    name: str | None = None
    dim: int | None = None
    kind: str | None = None
    entries: dict[tuple[int, int, int], Fraction] = {}
    for line_no, toks in _lines(text):
        head = toks[0]
        if head == "algebra":
            if name is not None:
                raise FormatError("duplicate algebra header", line_no)
            if len(toks) != 2:
                raise FormatError("expected: algebra <name>", line_no)
            name = toks[1]
        elif head == "dim":
            if dim is not None:
                raise FormatError("duplicate dim header", line_no)
            if len(toks) != 2:
                raise FormatError("expected: dim <n>", line_no)
            dim = _dim(toks[1], line_no)
        elif head == "kind":
            if kind is not None:
                raise FormatError("duplicate kind header", line_no)
            if len(toks) != 2 or toks[1] not in KINDS:
                raise FormatError(f"expected: kind <{'|'.join(KINDS)}>", line_no)
            kind = toks[1]
        elif head == "c":
            if name is None or dim is None or kind is None:
                raise FormatError("structure constants before the algebra/dim/kind headers",
                                  line_no)
            if len(toks) != 6 or toks[4] != "=":
                raise FormatError("expected: c i j k = p/q", line_no)
            i = _index(toks[1], line_no, dim)
            j = _index(toks[2], line_no, dim)
            k = _index(toks[3], line_no, dim)
            if (i, j, k) in entries:
                raise FormatError(f"duplicate entry c {i + 1} {j + 1} {k + 1}", line_no)
            entries[(i, j, k)] = _fraction(toks[5], line_no)
        else:
            raise FormatError(f"unrecognized directive {head!r}", line_no)
    if name is None or dim is None or kind is None:
        raise FormatError("missing algebra, dim, or kind header")
    return Algebra.from_entries(name, dim, entries, kind)


def serialize_algebra(A: Algebra) -> str:
    lines = [f"algebra {A.name}", f"dim {A.dim}", f"kind {A.kind}"]
    n = A.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = A.c[i][j][k]
                if v:
                    lines.append(f"c {i + 1} {j + 1} {k + 1} = {v}")
    return "\n".join(lines) + "\n"


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
    return tuple(out)


def parse_map(text: str):
    """Parse a map file into a BilinearTensor, PolyRightMap, or PolyLeftMap."""
    map_kind: str | None = None
    dim: int | None = None
    tensor_entries: dict[tuple[int, int, int], Fraction] = {}
    poly_entries: dict[tuple[tuple[int, ...], int, int], Fraction] = {}
    for line_no, toks in _lines(text):
        head = toks[0]
        if head == "map":
            if map_kind is not None:
                raise FormatError("duplicate map header", line_no)
            if len(toks) != 2 or toks[1] not in MAP_KINDS:
                raise FormatError(f"expected: map <{'|'.join(MAP_KINDS)}>", line_no)
            map_kind = toks[1]
        elif head == "dim":
            if dim is not None:
                raise FormatError("duplicate dim header", line_no)
            if len(toks) != 2:
                raise FormatError("expected: dim <n>", line_no)
            dim = _dim(toks[1], line_no)
        elif head == "t":
            if map_kind is None or dim is None:
                raise FormatError("entries before the map/dim headers", line_no)
            if map_kind != "bilinear":
                raise FormatError(f"t lines belong to bilinear maps, not {map_kind}", line_no)
            if len(toks) != 6 or toks[4] != "=":
                raise FormatError("expected: t i j k = p/q", line_no)
            i = _index(toks[1], line_no, dim)
            j = _index(toks[2], line_no, dim)
            k = _index(toks[3], line_no, dim)
            if (i, j, k) in tensor_entries:
                raise FormatError(f"duplicate entry t {i + 1} {j + 1} {k + 1}", line_no)
            tensor_entries[(i, j, k)] = _fraction(toks[5], line_no)
        elif head == "m":
            if map_kind is None or dim is None:
                raise FormatError("entries before the map/dim headers", line_no)
            if map_kind == "bilinear":
                raise FormatError("m lines belong to poly maps, not bilinear", line_no)
            if len(toks) != 6 or toks[4] != "=":
                raise FormatError("expected: m (a1,...,an) r c = p/q", line_no)
            alpha = _parse_exponents(toks[1], line_no, dim)
            r = _index(toks[2], line_no, dim, "row")
            c = _index(toks[3], line_no, dim, "col")
            if (alpha, r, c) in poly_entries:
                raise FormatError("duplicate poly map entry", line_no)
            poly_entries[(alpha, r, c)] = _fraction(toks[5], line_no)
        else:
            raise FormatError(f"unrecognized directive {head!r}", line_no)
    if map_kind is None or dim is None:
        raise FormatError("missing map or dim header")
    if map_kind == "bilinear":
        return BilinearTensor.from_entries(dim, tensor_entries)
    grids: dict[tuple[int, ...], list[list[Fraction]]] = {}
    for (alpha, r, c), v in poly_entries.items():
        grid = grids.setdefault(alpha, [[Fraction(0)] * dim for _ in range(dim)])
        grid[r][c] = v
    terms = {alpha: Matrix(grid) for alpha, grid in grids.items()}
    cls = PolyRightMap if map_kind == "polyright" else PolyLeftMap
    return cls(dim, terms)


def serialize_map(obj) -> str:
    """Canonical text for a tensor or poly map; inverse of `parse_map`."""
    if isinstance(obj, BilinearTensor):
        n = obj.dim
        lines = ["map bilinear", f"dim {n}"]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    v = obj.t[i][j][k]
                    if v:
                        lines.append(f"t {i + 1} {j + 1} {k + 1} = {v}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, (PolyRightMap, PolyLeftMap)):
        kind = "polyright" if isinstance(obj, PolyRightMap) else "polyleft"
        n = obj.dim
        lines = [f"map {kind}", f"dim {n}"]
        for alpha in sorted(obj.terms):
            m = obj.terms[alpha]
            exp = "(" + ",".join(str(e) for e in alpha) + ")"
            for r in range(n):
                for c in range(n):
                    v = m.data[r][c]
                    if v:
                        lines.append(f"m {exp} {r + 1} {c + 1} = {v}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
