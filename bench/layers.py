"""What the traced run wraps, and the per-layer metrics it derives from the spans.

Layers are the modules of `biderlie`. A span belongs to the layer whose
module defines the wrapped function, so `verify.bracket-right` (the Lie-law
suite, defined in `brackets`) counts toward the `brackets` layer while its
inclusive time is reported under its suite name.
"""

from __future__ import annotations

from spans import LAYERS, Target


def _rref_counter(rec, args, kwargs, result):
    m = args[0]
    red, rank = result
    rec.add("linalg.rref.rows", m.rows)
    rec.add("linalg.rref.cols", m.cols)
    rec.add("linalg.rref.nnz_in", sum(1 for row in m.data for x in row if x))
    rec.add("linalg.rref.rank", rank)
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in red.data for x in row if x), default=0)
    rec.maximum("linalg.rref.max_bits", bits)


def _contains_counter(rec, args, kwargs, result):
    rec.add("linalg.contains.hits", bool(result))


def _commutator_counter(rec, args, kwargs, result):
    rec.add("linalg.mat_commutator.zeros", result.is_zero())


def _terms_counter(rec, args, kwargs, result):
    rec.add("brackets.terms_out", len(result.terms))


def _lie_suite_name(args, kwargs):
    side = args[1] if len(args) > 1 else kwargs.get("side", "right")
    return f"verify.bracket-{side}"


_BILINEAR_METHODS = ("from_flat", "flatten", "evaluate", "transpose", "is_symmetric", "is_skew",
                     "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__")


def _targets() -> list[Target]:
    L, D, B = "biderlie.linalg", "biderlie.derivations", "biderlie.biderivations"
    T, S, F = "biderlie.brackets", "biderlie.scalar_maps", "biderlie.formats"
    V, R = "biderlie.verify", "biderlie.report"
    out = [
        Target(L, "rref", "linalg.rref", "linalg", _rref_counter),
        Target(L, "nullspace", "linalg.nullspace", "linalg"),
        Target(L, "canonicalize", "linalg.canonicalize", "linalg"),
        Target(L, "intersect", "linalg.intersect", "linalg"),
        Target(L, "SubspaceBasis.contains", "linalg.contains", "linalg", _contains_counter),
        Target(L, "mat_commutator", "linalg.mat_commutator", "linalg", _commutator_counter),
        Target("biderlie.algebras", "check_kind", "algebras.check_kind", "algebras"),
        Target("biderlie.algebras", "builtin", "algebras.builtin", "algebras"),
        Target(D, "derivation_space", "derivations.derivation_space", "derivations"),
        Target(D, "derivation_matrices", "derivations.derivation_matrices", "derivations"),
        Target(D, "is_derivation", "derivations.is_derivation", "derivations"),
        Target(B, "right_bider_bilinear_space", "biderivations.right_space", "biderivations"),
        Target(B, "left_bider_bilinear_space", "biderivations.left_space", "biderivations"),
        Target(B, "bider_space", "biderivations.bider_space", "biderivations"),
        Target(B, "spaces_intersection", "biderivations.spaces_intersection", "biderivations"),
        Target(B, "is_right_bider", "biderivations.is_right_bider", "biderivations"),
        Target(B, "is_left_bider", "biderivations.is_left_bider", "biderivations"),
        Target("biderlie.bilinear", "symmetrize", "bilinear.symmetrize", "bilinear"),
        Target("biderlie.bilinear", "skew_symmetrize", "bilinear.skew_symmetrize", "bilinear"),
        Target("biderlie.bilinear", "half_decomposition", "bilinear.half_decomposition",
               "bilinear"),
        Target("biderlie.bilinear", "random_tensor", "bilinear.random_tensor", "bilinear"),
        Target(T, "rhd", "brackets.rhd", "brackets", _terms_counter),
        Target(T, "lhd", "brackets.lhd", "brackets", _terms_counter),
        Target(T, "is_right_bider_poly", "brackets.is_bider_poly", "brackets"),
        Target(T, "is_left_bider_poly", "brackets.is_bider_poly", "brackets"),
        Target(T, "verify_lie_algebra", _lie_suite_name, "brackets"),
        Target(T, "verify_transpose_interplay", "verify.transpose", "brackets"),
        Target(S, "iff_derivation_check", "scalar_maps.iff_derivation_check", "scalar_maps"),
        Target(S, "exp_curve_check", "scalar_maps.exp_curve_check", "scalar_maps"),
        Target(S, "bracket_matches_poly_form", "scalar_maps.bracket_matches_poly_form",
               "scalar_maps"),
        Target(F, "parse_algebra", "formats.parse", "formats"),
        Target(F, "parse_map", "formats.parse", "formats"),
        Target(F, "serialize_algebra", "formats.serialize", "formats"),
        Target(F, "serialize_map", "formats.serialize", "formats"),
        Target(V, "kind_suite", "verify.kind", "verify"),
        Target(V, "derivation_suite", "verify.derivations", "verify"),
        Target(V, "space_suite", "verify.spaces", "verify"),
        Target(V, "symmetry_suite", "verify.symmetric-parts", "verify"),
        Target(V, "scalar_suite", "verify.scalar-class", "verify"),
        Target(V, "run_all", "verify.run_all", "verify"),
        Target("biderlie.cli", "main", "cli.main", "cli"),
    ]
    out += [Target("biderlie.bilinear", f"BilinearTensor.{m}", f"bilinear.{m.strip('_')}",
                   "bilinear") for m in _BILINEAR_METHODS]
    out += [Target(R, fn, f"report.{fn}", "report")
            for fn in ("check", "skip", "all_ok", "to_json_checks", "render_table",
                       "witness_from_triple")]
    return out


TARGETS = _targets()
LAYER_OF = {"verify.bracket-right": "brackets", "verify.bracket-left": "brackets"}
LAYER_OF.update({t.name: t.layer for t in TARGETS if isinstance(t.name, str)})

VERIFY_SUITES = ("kind", "derivations", "spaces", "symmetric-parts", "bracket-right",
                 "bracket-left", "transpose", "scalar-class")

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    [("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
     ("linalg.rref.rows", "count"), ("linalg.rref.cols", "count"),
     ("linalg.rref.nnz_in", "count"), ("linalg.rref.max_bits", "bits"),
     ("linalg.rref.rank_per_row", "ratio")]
    + [(f"linalg.{f}.{m}", u) for f in ("nullspace", "canonicalize", "intersect", "contains",
                                       "mat_commutator")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("linalg.contains.hit_ratio", "ratio"), ("linalg.mat_commutator.zero_ratio", "ratio")]
    + [(f"derivations.{f}.{m}", u) for f in ("derivation_space", "is_derivation")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"biderivations.{f}.{m}", u)
       for f in ("right_space", "left_space", "bider_space", "spaces_intersection",
                 "is_right_bider", "is_left_bider")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"brackets.{f}.{m}", u) for f in ("rhd", "lhd", "is_bider_poly")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("brackets.terms_out", "count"),
       ("scalar_maps.iff_derivation_check.self_s", "s"),
       ("scalar_maps.exp_curve_check.self_s", "s"),
       ("algebras.check_kind.self_s", "s")]
    + [(f"formats.{f}.{m}", u) for f in ("parse", "serialize")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"verify.{s}.s", "s") for s in VERIFY_SUITES]
    + [("cli.main.self_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS + ("trace", "harness")]
    + [("trace.accounted_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(summary: dict, counts: dict, maxima: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `trace.overhead_ratio` is filled in by the caller."""
    names = summary["names"]

    def calls(n):
        return names.get(n, (0, 0.0, 0.0))[0]

    def self_s(n):
        return names.get(n, (0, 0.0, 0.0))[1]

    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(stem)
        elif kind == "self_s":
            out[metric] = self_s(stem)
    for key in ("linalg.rref.rows", "linalg.rref.cols", "linalg.rref.nnz_in",
                "brackets.terms_out"):
        out[key] = counts.get(key, 0)
    out["linalg.rref.max_bits"] = maxima.get("linalg.rref.max_bits", 0)
    out["linalg.rref.rank_per_row"] = _ratio(counts.get("linalg.rref.rank", 0),
                                             counts.get("linalg.rref.rows", 0))
    out["linalg.contains.hit_ratio"] = _ratio(counts.get("linalg.contains.hits", 0),
                                              calls("linalg.contains"))
    out["linalg.mat_commutator.zero_ratio"] = _ratio(
        counts.get("linalg.mat_commutator.zeros", 0), calls("linalg.mat_commutator"))
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.s"] = names.get(f"verify.{suite}", (0, 0.0, 0.0))[2]
    layers = summary["layers"]
    for layer, seconds in layers.items():
        out[f"{layer}.self_s"] = seconds
    out["harness.self_s"] = wall - summary["roots_s"]
    out["trace.accounted_ratio"] = _ratio(sum(layers.values()), wall)
    return out
