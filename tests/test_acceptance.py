"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS/FAIL
lines while the suite is green). Everything is exact arithmetic except the
one-parameter-curve check, whose tolerances are pinned below.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from biderlie import (Algebra, BilinearTensor, ScalarPoly, ScalarTimesDerivation, ad,
                      bider_space, builtin, check_kind, counterexample_bracket,
                      derivation_matrices, derivation_space, exp_curve_check,
                      identity_residual, iff_derivation_check, is_bider,
                      is_left_bider, is_right_bider, left_bider_witness,
                      right_bider_bilinear_space, run_all, serialize_algebra,
                      skew_symmetrize, symmetrize,
                      verify_lie_algebra, verify_transpose_interplay)
from biderlie import cli
from biderlie.cli import heisenberg_example_maps, main
from biderlie.formats import parse_algebra
from biderlie.linalg import Matrix
from biderlie.report import all_ok
from biderlie.scalar_maps import bracket_matches_poly_form

F = Fraction

BUILTINS = ("abelian(2)", "abelian(3)", "abelian(4)", "L1", "L2", "L3", "L4",
            "heisenberg3", "sl2")


def report(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, criterion


def test_criterion_1_dimension_laws():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        A = builtin(f"abelian({n})")
        ok &= derivation_space(A).dim == n * n
        ok &= bider_space(A).dim == n ** 3
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(f"criterion 1: dimension laws for abelian(2..4) in {elapsed:.2f}s", ok)


def test_criterion_2_heisenberg_regression():
    A, b1, b2 = heisenberg_example_maps()
    ok = is_bider(A, b1) and is_bider(A, b2)
    bracket = counterexample_bracket(A, b1, b2)
    expected = BilinearTensor.from_entries(3, {(1, 0, 0): F(-1)})  # B(e2,e1) = -e1
    ok &= bracket == expected
    ok &= is_right_bider(A, bracket)
    ok &= not is_left_bider(A, bracket)
    witness = left_bider_witness(A, bracket)
    ok &= witness is not None and witness.triple == (1, 1, 0)
    ok &= witness.residual == (F(0), F(0), F(1))
    report("criterion 2: heisenberg worked-example regression", ok)


def test_criterion_3_leibniz_classification():
    ok = all(check_kind(builtin(n), "leibniz-left").ok for n in ("L1", "L2", "L3", "L4"))
    rep = check_kind(builtin("L4"), "leibniz-right")
    ok &= not rep.ok
    ok &= rep.witness.triple == (1, 1, 1)                       # (e2,e2,e2)
    ok &= rep.witness.residual == (F(1), F(0))                  # e1, exactly
    ok &= identity_residual(builtin("L4"), "leibniz-right", (1, 1, 1)) == (F(1), F(0))
    ok &= check_kind(builtin("L3"), "leibniz-left").ok
    ok &= check_kind(builtin("L3"), "leibniz-right").ok
    report("criterion 3: two-dimensional classification checks", ok)


def test_criterion_4_lie_algebra_property_suite():
    t0 = time.monotonic()
    L4 = builtin("L4")
    algebras = [builtin("heisenberg3"), builtin("sl2"), builtin("abelian(3)"),
                Algebra("L4-generic", 2, L4.c, "generic")]
    ok = True
    for A in algebras:
        ok &= all_ok(verify_lie_algebra(A, "right", samples=25, seed=0))
        ok &= all_ok(verify_lie_algebra(A, "left", samples=25, seed=0))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(f"criterion 4: bracket Lie-algebra suite (seed 0, 25 samples) in {elapsed:.2f}s", ok)


def test_criterion_5_transpose_suite():
    ok = True
    for name in ("heisenberg3", "sl2"):
        ok &= all_ok(verify_transpose_interplay(builtin(name)))
    rng = random.Random(0)
    for _ in range(100):
        B = BilinearTensor(3, [[[F(rng.randint(-4, 4)) for _ in range(3)]
                                for _ in range(3)] for _ in range(3)])
        ok &= symmetrize(B) - skew_symmetrize(B) == 2 * B.transpose()
        ok &= F(1, 2) * (symmetrize(B) + skew_symmetrize(B)) == B
    report("criterion 5: transpose/symmetry identity suite", ok)


def test_criterion_6_structural_oracle_equivalence():
    ok = True
    for name in BUILTINS:
        A = builtin(name)
        n = A.dim
        der = derivation_space(A)
        space = right_bider_bilinear_space(A)
        ok &= space.dim == n * der.dim
        # membership, solver space -> derivation-valued columns
        for flat in space.vectors:
            t = BilinearTensor.from_flat(flat, n)
            for j in range(n):
                m = Matrix(tuple(tuple(t.t[i][j][k] for i in range(n)) for k in range(n)))
                ok &= der.contains(m.to_col_major())
        # membership, derivation-built generators -> solver space
        for D in derivation_matrices(A):
            for j in range(n):
                entries = {}
                for i in range(n):
                    col = D.col(i)
                    for k in range(n):
                        if col[k]:
                            entries[(i, j, k)] = col[k]
                gen = BilinearTensor.from_entries(n, entries)
                ok &= space.contains(gen.flatten())
    report("criterion 6: right space factorizes through the derivation algebra", ok)


def test_criterion_7_scalar_class_suite():
    t0 = time.monotonic()
    A = builtin("heisenberg3")
    rng = random.Random(0)
    ders = derivation_matrices(A)
    checked = 0
    ok = True
    while checked < 100:
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            alpha = [0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                alpha[rng.randrange(3)] += 1
            coeffs[tuple(alpha)] = F(rng.randint(-3, 3), rng.randint(1, 2))
        g = ScalarPoly(3, coeffs)
        if g.is_zero():
            continue
        if checked % 2 == 0:
            F_mat = Matrix.zeros(3, 3)
            for d in ders:
                F_mat = F_mat + F(rng.randint(-2, 2)) * d
        else:
            F_mat = Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        ok &= iff_derivation_check(A, ScalarTimesDerivation(g, F_mat))
        checked += 1
    # exact agreement of the family bracket with the polynomial bracket
    for _ in range(25):
        s1 = ScalarTimesDerivation(
            ScalarPoly(3, {(1, 0, 0): F(1), (0, 0, 0): F(rng.randint(-2, 2))}),
            Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]))
        s2 = ScalarTimesDerivation(
            ScalarPoly(3, {(0, 0, 1): F(rng.randint(1, 3))}),
            Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]))
        ok &= bracket_matches_poly_form(s1, s2)
    # curve check at the stated tolerance, with observed second-order decay
    g = ScalarPoly.coordinate(3, 1)
    diag = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    rep = exp_curve_check(A, ScalarTimesDerivation(g, diag),
                          h_list=(1e-2, 1e-3, 1e-4), tol=1e-6)
    ok &= rep.tol_ok and rep.errors[-1][0] == 1e-4
    ok &= all(1.8 <= p <= 2.2 for p in rep.orders)
    nilp = exp_curve_check(A, ScalarTimesDerivation(g, ad(A, A.basis_element(0))),
                           h_list=(1e-2, 1e-3, 1e-4), tol=1e-6)
    ok &= nilp.ok
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(f"criterion 7: scalar-times-derivation suite in {elapsed:.2f}s", ok)


# sha256 of the stdout of `biderlie verify <name>`, and of `verify <name> --json
# --seed 0` for the builtins the verify-sweep benchmark runs (the digests in
# bench/expected.json). Recorded before the integer rewrite of the sample
# arithmetic, which must not change a byte.
VERIFY_TEXT_SHA256 = {
    "abelian(2)": "0f99bee4b3c3113b081154c58e5dd09651ce492247f34cad28e26e7dcc632527",
    "abelian(3)": "024b623fdb1d25f20ce9c47c43f73c4da6c23263cab3d2ac3881b525449bb8a5",
    "abelian(4)": "ddfbb53070fb983c271c11536361f8b19e7ec9b40599d5cd0b676313b7e8b46b",
    "L1": "7f9013f11c239fba8a77cacb4f6d0aa18cd52392594dbf3c25136bad8921d7cd",
    "L2": "4132859fb115ca193b9d3e338c79ebff994a05bebbfc62699c7aa7bfbf76b3ed",
    "L3": "2d9da9ec63d388d14162d2131c6514344f267c9c647031bb2797923bf87a7125",
    "L4": "b74667dba6dfdc540d7e891dd24e9142cc08e5649b120a9925f12086a28fdacf",
    "heisenberg3": "18f973406f8c719ca60d69d798622b52080ee1e6d07cb62a79ee358fb060eb95",
    "sl2": "f46e8afddabc24ec72110142d961fb0510cf69bcca3a703a2cdf29bfe4d710d5",
}
VERIFY_JSON_SHA256 = {
    "abelian(2)": "b374f2270293267ebce12b928c70b36e2e3b85d8270a4c111a5e1a8d56277fc1",
    "L2": "ab1c97cc4187df748eb6d9b294ec067688add90fd9b65bf94c20f67aeaa5b7c2",
    "heisenberg3": "36fb3ba248ac0b31bfa757f7eadc79dd2f515905fc04251a407ec4671013616f",
    "L3": "73e00142405efa03fab149254590631ba873908cb282f134ce32c180ffc8c7f2",
    "L4": "180cd885565467720a515dca5f61fff9574e3a1fdca5263158a2709dc055033b",
}


# Algebra files whose declared identity fails, one per kind of witness, all
# with non-integer constants; and sha256 of `check <file>` and `check <file>
# --json`, of `bider <name> --side right|left|both` (the three outputs
# concatenated) and of `serialize_algebra` over the builtins. Recorded before
# the product became a `BilinearTensor`, which must not change a byte.
FAILING_ALGEBRAS = {
    "leibniz-left": "algebra ll\ndim 2\nkind leibniz-left\nc 1 2 1 = 1/3\nc 2 2 1 = 5/7\n",
    "leibniz-right": "algebra lr\ndim 2\nkind leibniz-right\nc 2 1 1 = 1/3\nc 2 2 1 = 5/7\n",
    "antisymmetry": "algebra as\ndim 2\nkind lie\nc 1 2 1 = 1/2\nc 2 1 1 = -1/3\n",
    "jacobi": ("algebra jac\ndim 3\nkind lie\nc 1 2 1 = 1/2\nc 2 1 1 = -1/2\nc 2 3 3 = 5/3\n"
               "c 3 2 3 = -5/3\nc 1 3 2 = 1\nc 3 1 2 = -1\n"),
}
CHECK_SHA256 = {
    "leibniz-left": ("57f7870e0c47194f6fa849db9e08ab32b2a63588b4d47ea15797739ac4b75d7c",
                     "ca4237ff4f94f6d018fbc0446cf3a2e7cc92e4a306f9bb05bca61e1be9071f37"),
    "leibniz-right": ("c8b6add299d2b0bd9dfa659adf1756d2309be77769af3c3b5e1d74593a4b36b6",
                      "7a3961560a8b1246dc4d3471c7ede6f0549e4eccd7583ff24fb4356fb78ad488"),
    "antisymmetry": ("192e0fc295b61b61dab59d6cd90120379e56a8200467884869548a5a3b64461b",
                     "8fcd94d4c81d631602c7d4a5867830aca10b7f3434ab4f411f135c154fb5da87"),
    "jacobi": ("5d8766eaeea8c97bb100223efd2e198b660f24fceaf2bbf4b1164eebb480c822",
               "c5296152b16aee8a9dedea64aa4249c3f449c26149b4c4a43ee851a8e55f5154"),
}
BIDER_SIDES_SHA256 = {
    "abelian(2)": "568181a78379069842c28a8c4c60437fc33599be00b837685e79c9120f80de0d",
    "abelian(3)": "078536ee68c322954ce8b0f37c998dd3f4f9551f5f07362e5bd194ea7e0fdffe",
    "abelian(4)": "d6ff556111f867a29e5642bcb4f9bc239a9971205e80654bce7de5737d241c0f",
    "L1": "12de716f5375e5e529408f397754fbdc3eac87e6a9bf72f83b1b4a2de20d851f",
    "L2": "3b891ffaf9535a68790aab3839289bfe7225ea016de309399422c219f0643559",
    "L3": "3d75167abc02be7a8b10473b3318f16532ceede5692f5a49e500ba5c7d69d72d",
    "L4": "3777fb2d1870cf46a82268704b9a61689f7907c4cd49b68bc638cb066dc39f06",
    "heisenberg3": "c79e19602c471bbe13041c14f21c88585f8b26814b890424cc613c57d10360e1",
    "sl2": "3422ef6101ae16543eca6e5d0c9c5cf733a097facb644fd3cb9feba43e8fd346",
}
SERIALIZED_BUILTINS_SHA256 = "10b49c3ce3e9c692f434a448b779ef59019dd0d933bdca48a5a98c2a11e22ff7"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of `verify <file>` and `verify <file> --json` on the two lie-declared
# failing algebras: the Lie scans run in integers and divide only the witness
VERIFY_FAILING_SHA256 = {
    "antisymmetry": ("c44557e0944460d3edb18bf9b14c52c50a9a0f1c8249765c718ad00ba4e9eb90",
                     "252318aa8563247adaa3790a2f04d3681401cca9025160b9d9fa04af27425599"),
    "jacobi": ("e98d0c102a218a11a2a4b7f7d5b7ad82e5ed56357de48a711cbbd862772b2b22",
               "0f26607440c4e95e4f28270acf8c97f209da06cecb3f406b1843322fe2970e6b"),
}


@pytest.mark.parametrize("kind", sorted(VERIFY_FAILING_SHA256))
def test_lie_kind_witnesses_are_pinned_in_check_and_verify(capsys, tmp_path, kind):
    path = tmp_path / f"{kind}.alg"
    path.write_text(FAILING_ALGEBRAS[kind])
    runs = zip((["check", str(path)], ["check", str(path), "--json"], ["verify", str(path)],
                ["verify", str(path), "--json"]), CHECK_SHA256[kind] + VERIFY_FAILING_SHA256[kind])
    for argv, digest in runs:
        assert main(argv) == 1
        assert _sha256(capsys.readouterr().out) == digest, argv
    w = check_kind(parse_algebra(FAILING_ALGEBRAS[kind])).witness
    # as: [e2,e1] = -1/3 e1 against -[e1,e2] = -1/2 e1; jac: the Jacobi sum at
    # (e3, e2, e1), over the square of the constants' denominator 6
    F = Fraction
    want = {"antisymmetry": ((1, 0), (F(-1, 3), 0), (F(-1, 2), 0), (F(1, 6), 0)),
            "jacobi": ((2, 1, 0), (0, 0, 0), (0, F(7, 6), 0), (0, F(7, 6), 0))}[kind]
    assert (w.identity, w.triple, w.lhs, w.rhs, w.residual) == (kind, *want)


def test_criterion_8_cli_contract(capsys, monkeypatch, tmp_path):
    # the suites of each builtin run once; its text and JSON reports both
    # render that one list of checks
    checks = {}

    def run_once(A, seed, samples):
        key = (A.name, seed, samples)
        if key not in checks:
            checks[key] = run_all(A, seed=seed, samples=samples)
        return checks[key]

    monkeypatch.setattr(cli, "run_all", run_once)
    ok = True
    for name in BUILTINS:
        runs = [(["verify", name], VERIFY_TEXT_SHA256[name])]
        if name in VERIFY_JSON_SHA256:
            runs.append((["verify", name, "--json", "--seed", "0"], VERIFY_JSON_SHA256[name]))
        for argv, digest in runs:
            code = main(argv)
            out = capsys.readouterr().out
            ok &= code == 0
            ok &= hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(checks) == len(BUILTINS)
    code = main(["example", "heisenberg"])
    out = capsys.readouterr().out
    ok &= code == 0 and "B(e2,e1) = -e1" in out.splitlines()
    code = main(["verify", "heisenberg3", "--json"])
    out = capsys.readouterr().out
    ok &= code == 0
    data = json.loads(out)
    ok &= json.dumps(data, indent=2, sort_keys=True) == out.strip()
    ok &= data["ok"] is True and len(data["checks"]) > 0
    ok &= all(c["status"] in ("pass", "fail", "skip") for c in data["checks"])
    for kind, text in FAILING_ALGEBRAS.items():
        path = tmp_path / f"{kind}.alg"
        path.write_text(text)
        for argv, digest in zip((["check", str(path)], ["check", str(path), "--json"]),
                                CHECK_SHA256[kind]):
            code = main(argv)
            out = capsys.readouterr().out
            ok &= code == 1 and kind in out
            ok &= _sha256(out) == digest
    for name in BUILTINS:
        outs = []
        for side in ("right", "left", "both"):
            ok &= main(["bider", name, "--side", side]) == 0
            outs.append(capsys.readouterr().out)
        ok &= _sha256("".join(outs)) == BIDER_SIDES_SHA256[name]
    ok &= _sha256("".join(serialize_algebra(builtin(n)) for n in BUILTINS)) \
        == SERIALIZED_BUILTINS_SHA256
    report("criterion 8: CLI verify/example/check/bider/--json contract", ok)
