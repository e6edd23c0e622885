import json
from fractions import Fraction

import pytest

from ddepoly.cli import main
from ddepoly.families import FAMILIES, RULE, FamilySpec, coefficient_source
from ddepoly.roots import InternalError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_bell_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["verify", "--family", "bell", "--n", "12", "--out", str(out_path), "--no-timestamp"])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["decision"]["case"] == "c"
    assert doc["report"]["agreement"] is True
    assert doc["report"]["decision"]["betas"][0] == "0"


def test_verify_jacobi_with_alpha_plus_beta_minus_one(capsys):
    # Chebyshev T: the general A_0 divides by 1 + alpha + beta = 0, but P_0' = 0 leaves A_0 unread
    code, out = run(capsys, "verify", "--family", "jacobi", "--alpha", "-1/2", "--beta", "-1/2", "--n", "6",
                    "--no-timestamp")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["decision"]["case"] == "a"
    assert report["agreement"] is True


def test_admits_hermite_table(capsys, tmp_path):
    # physicists' normalization table through degree 6, from the three-term route
    hs = [[1], [0, 2]]
    for n in range(1, 6):
        prev, cur = hs[n - 1], hs[n]
        nxt = [0] * (n + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * n * c
        hs.append(nxt)
    doc = {"sequence": [[str(c) for c in h] for h in hs]}
    path = tmp_path / "hermite_table.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "admits", "--sequence", str(path), "--no-timestamp")
    assert code == 0
    rep = json.loads(out)
    entries = rep["result"]["entries"]
    assert all(e["verdict"] == "admits" for e in entries)
    for e in entries:
        if e["n"] >= 2:
            assert e["pair"]["A"] == ["-1"]
            assert e["pair"]["B"] == ["0", "2"]
        if e["n"] >= 3:
            assert e["unique"] is True


def test_classify_out_of_window_exits_one(capsys):
    code, out = run(capsys, "classify", "--family", "hyp2f1", "--b", "20", "--c", "1",
                    "--n", "25", "--no-timestamp")
    assert code == 1
    doc = json.loads(out)
    assert doc["decision"]["case"] == "none"
    assert "n=19" in doc["decision"]["diagnosis"]["a"]


def test_classify_in_window_exits_zero(capsys):
    code, out = run(capsys, "classify", "--family", "hyp2f1", "--b", "20", "--c", "1",
                    "--n", "10", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"]["case"] == "a"
    assert doc["classifications"][0]["k_zero_count"] == 2


def test_generate_euler_frobenius(capsys):
    code, out = run(capsys, "generate", "--family", "euler_frobenius", "--kappa", "1",
                    "--r", "n+1", "--n", "5", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"] == [0, 1, 2, 3, 4, 5]
    assert doc["polynomials"][1] == ["0", "-2"]  # B_0 = -2 kappa_0 r_0 x with r_0 = 1


def test_zeros_csv_header_and_shape(capsys):
    code, out = run(capsys, "zeros", "--family", "bell", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,index,lo,hi,mid"
    assert len(lines) == 1 + 1 + 2 + 3 + 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"


def test_freud_demo_reproduces_negative_result(capsys):
    code, out = run(capsys, "freud-demo", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["no_polynomial_pair_at_5"] is True
    assert doc["quintic_zero_mismatch"] < 1e-30
    assert float(doc["interpolant_residual"]) < 1e-25
    entries = {e["n"]: e for e in doc["admissibility"]["entries"]}
    assert entries[5]["verdict"] == "fails"
    assert doc["recurrence_coefficients"][1].startswith("0.581368317019118")


def test_freud_demo_isolates_p5_once(capsys, monkeypatch):
    # quintic_zero_mismatch reads the zeros that sample_xy isolated; every
    # isolation, by isolate_roots or real_simple_zeros, goes through _isolate
    import ddepoly.roots as roots

    calls = []
    orig = roots._isolate
    monkeypatch.setattr(roots, "_isolate", lambda *a: calls.append(1) or orig(*a))
    code, out = run(capsys, "freud-demo", "--no-timestamp")
    assert code == 0 and json.loads(out)["quintic_zero_mismatch"] < 1e-30
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_close_surd_roots_get_a_case_diagnosis(capsys, tmp_path, command):
    # A = (x-1)^2 - 2 10^-160 has the roots 1 +- sqrt(2) 10^-80, one 256-bit
    # float apart from nothing; held exactly, they give an honest "no case"
    c0 = f"{10**160 - 2}/{10**160}"
    pairs = [{"A": ["1"], "B": ["0", "1"]}] + [{"A": [c0, "-2", "1"], "B": ["0", "1"]}] * 3
    path = tmp_path / "close_roots.json"
    path.write_text(json.dumps({"coefficients": pairs, "N": 3}))
    code, out = run(capsys, command, "--input", str(path), "--no-timestamp")
    assert code == 1
    doc = json.loads(out)
    decision = doc["decision"] if command == "classify" else doc["report"]["decision"]
    assert decision["case"] == "none" and not decision["numeric"]
    assert decision["diagnosis"]["a"] == "n=1: K vanishes at 1 point(s), need exactly 2"
    if command == "classify":
        # the two points print apart, each exactly as 1 +- b*sqrt(d) with b^2 d = 2 10^-160
        points = [e["point"] for e in doc["classifications"][0]["exponents"]]
        assert len(points) == 2 and points[0] != points[1]
        for point, sign in zip(points, "+-"):
            a, s, root = point.split(" ")
            b, d = root.removesuffix(")").split("*sqrt(")
            assert (a, s) == ("1", sign) and Fraction(b) ** 2 * int(d) == Fraction(2, 10**160)


@pytest.mark.parametrize("a0s, b0, code, case", [
    (["-4", "-9", "-16"], "-0.5", 0, "d"),
    (["-2", "-3", "-5"], "-0.5", 0, "d"),
    (["-2", "-3", "-5"], "-1.5", 1, "none"),
    (["-4", "-9", "-16"], "-0.1", 0, "d"),
])
def test_classify_decimal_first_root(capsys, tmp_path, a0s, b0, code, case):
    # a decimal B_0 puts an mpf first root, divided at B_0's precision, against
    # exact (rational or surd) endpoints; it is compared as the dyadic rational it holds
    pairs = [{"A": ["0"], "B": [b0, "1"]}] + [{"A": [a0, "0", "1"], "B": ["0"]} for a0 in a0s]
    path = tmp_path / "decimal_b0.json"
    path.write_text(json.dumps({"coefficients": pairs, "N": 3}))
    got, out = run(capsys, "classify", "--input", str(path), "--no-timestamp")
    doc = json.loads(out)
    assert got == code and doc["decision"]["case"] == case
    assert doc["first_root"] == b0[1:] and doc["decision"]["numeric"] is True
    if case == "none":
        assert doc["decision"]["diagnosis"]["d"] == "first root 1.5 violates alpha_1 < root < beta_1"


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_table_without_n_is_decided_as_far_as_it_goes(capsys, tmp_path, command):
    # three Hermite pairs generate P_0..P_3 and classify the steps n = 1, 2
    path = tmp_path / "hermite_pairs.json"
    path.write_text(json.dumps({"coefficients": [{"A": ["-1"], "B": ["0", "2"]}] * 3}))
    code, out = run(capsys, command, "--input", str(path), "--no-timestamp")
    doc = json.loads(out)
    decision = doc["decision"] if command == "classify" else doc["report"]["decision"]
    assert code == 0 and decision["case"] == "a" and len(decision["alphas"]) == 2


@pytest.mark.parametrize("flag, code", [((), 0), (("--tolerance", "1e-12"), 1)])
def test_admits_reads_the_document_tolerance(capsys, tmp_path, flag, code):
    # float Hermite table with P_5's constant term moved from 0 to 0.5: the
    # residuals at n = 4, 5 pass the document's tolerance 1, not 1e-12
    hs = [[1], [0, 2], [-2, 0, 4], [0, -12, 0, 8], [12, 0, -48, 0, 16],
          [0.5, 120, 0, -160, 0, 32], [-120, 0, 720, 0, -480, 0, 64]]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps({"sequence": [[f"{c:.1f}" for c in h] for h in hs], "tolerance": 1.0}))
    got, out = run(capsys, "admits", "--input", str(path), "--no-timestamp", *flag)
    verdicts = {e["n"]: e["verdict"] for e in json.loads(out)["result"]["entries"]}
    assert got == code
    assert [verdicts[n] for n in (4, 5)] == (["admits"] * 2 if code == 0 else ["fails"] * 2)


def test_freud_demo_tiny_negative_t(capsys):
    # a valid t this close to 0 reaches the degree-5 verdict instead of a numeric abort
    code, out = run(capsys, "freud-demo", "--t=-1e-30", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["no_polynomial_pair_at_5"] is True


def test_freud_demo_small_coefficients_reproduce(capsys):
    # at t = -30 the recurrence coefficients are small (a_1 ~ 0.091), so the
    # degree-5 residual and the degree-4 interpolant term are small too
    code, out = run(capsys, "freud-demo", "--t=-30", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["no_polynomial_pair_at_5"] is True
    assert {e["n"]: e for e in doc["admissibility"]["entries"]}[5]["verdict"] == "fails"


def test_freud_demo_loose_tolerance_admits(capsys):
    code, out = run(capsys, "freud-demo", "--t", "0", "--tolerance", "1", "--no-timestamp")
    assert code == 1
    doc = json.loads(out)
    assert {e["n"]: e for e in doc["admissibility"]["entries"]}[5]["verdict"] == "admits"
    assert doc["no_polynomial_pair_at_5"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("freud-demo", "--t", "-1/2", "--no-timestamp"),
        ("freud-demo", "--t", "-1e-30", "--no-timestamp"),
        ("zeros", "--family", "jacobi", "--alpha", "-1/2", "--beta", "0", "--n", "4"),
    ],
)
def test_negative_rational_option_value(capsys, argv):
    # the value reads as with '--opt=value', not as an option name
    i = next(i for i, tok in enumerate(argv) if tok[:1] == "-" and tok[1:2].isdigit())
    code, out = run(capsys, *argv)
    assert code == 0
    joined = argv[: i - 1] + (f"{argv[i - 1]}={argv[i]}",) + argv[i + 1 :]
    assert run(capsys, *joined) == (code, out)


def test_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "--family", "bell", "--n", "6", "--out", str(path), "--no-timestamp"])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_schema_violation_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sequence": [["1"], ["0", "oops"]]}))
    code = main(["admits", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "sequence[1][1]" in err


def test_missing_family_and_input_exits_two(capsys):
    assert main(["verify", "--n", "5"]) == 2


@pytest.mark.parametrize("command, message", [
    ("verify", "N must be >= 2"), ("generate", "N must be >= 1"), ("classify", "N must be >= 1"),
    ("zeros", "N must be >= 1"), ("admits", "N must be >= 1"),
])
def test_n_out_of_range_reaches_the_commands_own_check(capsys, command, message):
    # only a missing --n is refused as missing; a given one goes to the command's N check
    assert main([command, "--family", "bell"]) == 2
    assert capsys.readouterr().err == "input error: $: --n is required with --family\n"
    for n in ("0", "-1"):
        assert main([command, "--family", "bell", "--n", n]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("argv", [["generate", "--family", "freud", "--n", "6"], ["freud-demo"]])
@pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
def test_freud_t_must_be_finite(capsys, argv, t):
    # a non-finite t made members of NaN coefficients, and generate exited 0
    assert main([*argv, f"--t={t}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: --t: bad value '{t}': not a finite number\n"


FAMILY_PARAMETERS = [(kind, name) for kind, params in FAMILIES.items() for name in params]


@pytest.mark.parametrize("kind, name", FAMILY_PARAMETERS, ids=[f"{k}-{n}" for k, n in FAMILY_PARAMETERS])
def test_each_family_parameter_is_refused_by_name_and_defaults_once(capsys, tmp_path, kind, name):
    # a malformed value is refused at its flag and at its document path
    assert main(["generate", "--family", kind, "--n", "6", f"--{name}", "1/0"]) == 2
    assert capsys.readouterr().err.startswith(f"input error: --{name}: bad value '1/0'")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"family": {"kind": kind, name: "1/0"}, "N": 6}))
    assert main(["generate", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: $.family.{name}: bad value '1/0'")
    # a rule in n is read where the parameter may vary with n, and refused by name where it may not
    param = FAMILIES[kind][name]
    code = main(["generate", "--family", kind, "--n", "6", f"--{name}", "n+1", "--no-timestamp"])
    captured = capsys.readouterr()
    if param.form == RULE:
        assert code == 0 and captured.err == ""
    else:
        assert code == 2 and captured.err.startswith(f"input error: --{name}: bad value 'n+1'")
    # the default, left out or given, is the same value
    implicit, explicit = FamilySpec(kind), FamilySpec(kind, {name: str(param.default)})
    if kind == "freud":
        assert implicit.values == explicit.values
    else:
        implicit, explicit = coefficient_source(implicit), coefficient_source(explicit)
        for n in range(6):
            a, b = implicit.pair(n), explicit.pair(n)
            assert (a.A, a.B) == (b.A, b.B)


def test_input_document_verify_coefficients(capsys, tmp_path):
    doc = {
        "coefficients": [
            {"A": ["0"], "B": ["0", "1"]},
            {"A": ["-4", "0", "1"], "B": ["0"]},
            {"A": ["-9", "0", "1"], "B": ["0"]},
            {"A": ["-16", "0", "1"], "B": ["0"]},
        ],
        "N": 4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--input", str(path), "--no-timestamp")
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["decision"]["case"] == "d"


def test_verify_csv_export(capsys):
    code, out = run(capsys, "verify", "--family", "bell", "--n", "4", "--no-timestamp",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,index,lo,hi,mid"
    assert len(lines) == 1 + 1 + 2 + 3 + 4


def test_zeros_accepts_sequence_document(capsys, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"sequence": [["1"], ["0", "2"], ["-2", "0", "4"]]}))
    code, out = run(capsys, "zeros", "--input", str(path))
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,index,lo,hi,mid"
    mids = [float(r.split(",")[4]) for r in rows[2:]]
    assert abs(mids[0] + 0.7071067811865476) < 1e-8
    assert abs(mids[1] - 0.7071067811865476) < 1e-8


ORACLE_DOCS = {  # sequences no recurrence made; some members the certificate takes, some it declines
    "non-interlacing": {"sequence": [[1], [-3, 1], [-1, 0, 1], [-210, 107, -18, 1], [4, 0, -5, 0, 1],
                                     [0, 4, 0, -5, 0, 1], ["1/4", -3, 0, 1]]},
    "non-constant-p0": {"sequence": [[-1, 0, 1], [0, -4, 0, 1], ["-1/3", 1], [2, -3, 1]]},
    "repeated-root": {"sequence": [[1], [-1, 1], [1, -2, 1], [-1, 3, -3, 1], [0, 0, -1, 0, 1], [0, 4, 0, -5, 0, 1]]},
    "complex-roots": {"sequence": [[1], [0, 1], [1, 0, 1], [0, -2, 0, 1], [1, 0, 0, 0, 1], [0, 1, 0, -4, 0, 1]]},
    "zero-member": {"sequence": [[1], [0, 1], [0], [-1, 0, 1], [], [-1, 1], [0, -1, 0, 1]]},
    "degree-jump": {"sequence": [[1], [-1, 0, 1], [4, 0, -5, 0, 1], [0, -1, 0, 0, 1],
                                 [1, 0, -10, 0, 9, 0, 0, 0, 0, 1], [2], [-1, 2]]},
    "all-float": {"sequence": [["1.0"], ["0.5", "1.25"], ["-2.0", "0.0", "4.0"], ["0.1", "-3.0", "0.0", "1.0"],
                               ["0.3", "0.0", "-2.7", "0.0", "1.0"], ["1.0", "0.0", "1.0"],
                               ["0.0", "1.0", "0.0", "-0.7"]], "precision": 256},
}
ORACLE_FAMILY_ARGS = [
    ["bell"], ["hermite"], ["jacobi", "--alpha", "1/2", "--beta", "1/2"],
    ["euler_frobenius", "--kappa", "1", "--r", "n+1"], ["laguerre", "--alpha", "1/2"],
    ["hyp2f1", "--b", "40", "--c", "1"],
]
ORACLE_ZEROS = (
    [(["--family", *a, "--n", "30"], None) for a in ORACLE_FAMILY_ARGS]
    + [(["--family", "hermite", "--n", "16", "--width", w], None) for w in ("1/3", "1e-40", "100")]
    # coarse widths, where certified members and members the certificate declines share a sequence
    + [(["--family", *a, "--n", "20", "--width", w], None) for a in ORACLE_FAMILY_ARGS[:4] for w in ("1/10", "1")]
    + [(["--family", "freud", "--t", t, "--n", "12", "--precision", b], None)
       for t in ("0", "1/3") for b in ("256", "512")]
    + [(["--family", "freud", "--t", "1/3", "--n", "16", "--precision", b, "--width", w], None)
       for b, w in (("256", "1"), ("512", "1e-30"))]
    + [(None, name) for name in ORACLE_DOCS]
)


@pytest.mark.parametrize("argv, doc", ORACLE_ZEROS, ids=[" ".join(a) if a else d for a, d in ORACLE_ZEROS])
def test_zeros_csv_equals_isolate_roots_member_by_member(capsys, tmp_path, argv, doc):
    # the oracle is `isolate_roots` on each member of degree >= 1, on its
    # own Sturm chain, listed even where the member has repeated or complex roots
    import mpmath

    from ddepoly.dde import generate
    from ddepoly.documents import InputDocument, zeros_csv
    from ddepoly.freud import freud_recurrence_coeffs, freud_sequence
    from ddepoly.roots import isolate_roots

    width = Fraction(1, 10**9)
    if doc is not None:
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(ORACLE_DOCS[doc]))
        argv = ["--input", str(path)]
        polys = InputDocument.load(str(path)).sequence
    else:
        opts = dict(zip(argv[::2], argv[1::2]))
        N, family = int(opts["--n"]), opts["--family"]
        width = Fraction(opts.get("--width", width))
        if family == "freud":
            prec = int(opts["--precision"])
            t = FamilySpec(family, {"t": opts["--t"]}).values["t"]
            polys = freud_sequence(freud_recurrence_coeffs(t, N, prec), N).polys
        else:
            params = {k[2:]: v for k, v in opts.items() if k not in ("--family", "--n", "--width")}
            polys = generate(coefficient_source(FamilySpec(family, params)), N).polys
    w = width if polys[0].kind == "rational" else mpmath.mpf(float(width))
    rows = []
    for n, p in enumerate(polys):
        if p.degree < 1:
            continue
        for idx, r in enumerate(isolate_roots(p, w).roots):
            rows.append((n, idx, r.interval))
    code, out = run(capsys, "zeros", *argv)
    assert code == 0
    assert out == zeros_csv(rows)


def test_zeros_refuses_close_float_roots(capsys, tmp_path):
    # the float quintic (x-1)(x-1-1e-14)(x-2)(x+3)x has five real roots;
    # isolation on the held polynomial separates the two 1e-14 apart
    import mpmath

    with mpmath.workprec(256):
        coeffs = [mpmath.mpf(1)]
        for r in (1, 1 + mpmath.mpf("1e-14"), 2, -3, 0):
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        doc = {"sequence": [[mpmath.nstr(c, 80) for c in coeffs]], "precision": 256}
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "zeros", "--input", str(path))
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,index,lo,hi,mid" and len(rows) == 6


def test_strict_extension_flag(capsys, tmp_path):
    # rootless quadratic A with strong algebraic damping: K = (x^2+3)^-4
    doc = {
        "coefficients": [
            {"A": ["1"], "B": ["0", "-2"]},
            {"A": ["3", "0", "1"], "B": ["0", "-8"]},
            {"A": ["3", "0", "1"], "B": ["0", "-8"]},
            {"A": ["3", "0", "1"], "B": ["0", "-8"]},
        ],
        "N": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "verify", "--input", str(path), "--no-timestamp")
    assert code == 0
    code, _ = run(capsys, "verify", "--input", str(path), "--strict-extension", "--no-timestamp")
    assert code == 1


def test_kernel_invariant_failure_exits_internal(capsys, monkeypatch, tmp_path):
    # an isolation that hands refinement an interval with a root at its open
    # end breaks a kernel invariant: exit 4, never "input error" (exit 2)
    import ddepoly.roots as roots

    # P_2 = x (2x - 1) is certified, and its tree walk is the broken one: it
    # returns the node (0, 1] over den 1, with no values at its ends
    monkeypatch.setattr(roots, "locate_real_roots", lambda f, iso=None: [(0, 1, 1, None, None)])
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"sequence": [["1"], ["-1", "2"], ["0", "-1", "2"]]}))
    code = main(["zeros", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "internal error: isolating interval (0, 1] has a root at its open end\n"


def test_unsettled_root_counts_exit_internal(capsys, monkeypatch):
    # certificate counts that never settle (V = deg q below every x) stop at
    # P_2's root separation with exit 4; the patch gives up after 10^4 calls,
    # so that without the bound this test fails instead of hanging
    import ddepoly.roots as roots

    calls = []

    def at(self, num, den):
        calls.append(1)
        if len(calls) > 10**4:
            raise RuntimeError("the walk did not stop")
        return len(self.found), None

    monkeypatch.setattr(roots._BracketIsolator, "at", at)
    code = main(["zeros", "--family", "hermite", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "internal error: root counts of a degree-2 polynomial do not settle at its root separation\n"


@pytest.mark.parametrize("argv, where", [
    (["verify", "--family", "jacobi", "--n", "4", "--alpha", "1/0"], "--alpha"),
    (["verify", "--family", "euler_frobenius", "--n", "4", "--kappa", "1/0", "--r", "n+1"], "--kappa"),
    (["zeros", "--family", "hermite", "--n", "3", "--width", "1/0"], "--width"),
    (["freud-demo", "--t", "1/0"], "--t"),
])
def test_malformed_values_exit_two_naming_the_parameter(capsys, argv, where):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {where}: bad value '1/0'")


@pytest.mark.parametrize("doc, where", [
    ({"family": {"kind": "euler_frobenius", "kappa": "1/0"}, "N": 4}, "$.family.kappa"),
    ({"family": {"kind": "hermite_like", "kappa": [1, 2]}, "N": 4}, "$.family.kappa"),
    ({"coefficients": [{"A": ["-1"], "B": ["0", "2"]}] * 3, "N": 5}, "$.N"),
    ({"family": {"kind": "freud", "t": [1]}, "N": 1}, "$.family.t"),  # was an internal error, exit 4
])
def test_malformed_documents_exit_two(capsys, tmp_path, doc, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {where}: ")


@pytest.mark.parametrize("exc", [TypeError("unsupported operand"), ZeroDivisionError("division by zero"),
                                 IndexError("list index out of range")])
def test_escaped_type_zero_division_and_index_errors_exit_internal(capsys, monkeypatch, exc):
    # input is parsed where it is read, so these escaping a command are bugs
    import ddepoly.cli as cli

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_sequence", broken)
    assert main(["verify", "--family", "hermite", "--n", "4"]) == 4
    assert capsys.readouterr().err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_debug_adds_the_traceback_of_an_internal_error(capsys, monkeypatch):
    # stderr without --debug is the one line; with it the traceback comes first
    import ddepoly.cli as cli

    def broken(*args, **kwargs):
        raise InternalError("kernel invariant")

    monkeypatch.setattr(cli, "verify_sequence", broken)
    argv = ["verify", "--family", "hermite", "--n", "4"]
    assert main(argv) == 4
    assert capsys.readouterr().err == "internal error: kernel invariant\n"
    assert main([*argv, "--debug"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in err and err.endswith("InternalError: kernel invariant\ninternal error: kernel invariant\n")
    monkeypatch.setattr(cli, "verify_sequence", lambda *a, **k: 1 / 0)
    assert main([*argv, "--debug"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("internal error: ZeroDivisionError: division by zero\n")


@pytest.mark.parametrize("exc", [RuntimeError("the walk did not stop"), AssertionError("unreachable"),
                                 AttributeError("no attribute 'lo'"), KeyError("alpha"),
                                 RecursionError("maximum recursion depth exceeded")])
def test_any_escaped_exception_exits_internal(capsys, monkeypatch, exc):
    # exit 1 is verify's disagreement, so a fault must not reach the interpreter's exit
    import ddepoly.cli as cli

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_sequence", broken)
    assert main(["verify", "--family", "hermite", "--n", "4"]) == 4
    assert capsys.readouterr().err == f"internal error: {type(exc).__name__}: {exc}\n"


FAMILY_FLAGS = ["--family", "--n", "--alpha", "--beta", "--b", "--c", "--kappa", "--r", "--a", "--t"]
COMMAND_OPTIONS = {  # besides --out and --debug
    "generate": ["--input", "--precision", "--no-timestamp", *FAMILY_FLAGS],
    "classify": ["--input", "--no-timestamp", "--strict-extension", *FAMILY_FLAGS],
    "verify": ["--input", "--format", "--no-timestamp", "--strict-extension", *FAMILY_FLAGS],
    "admits": ["--input", "--sequence", "--tolerance", "--no-timestamp", *FAMILY_FLAGS],
    "freud-demo": ["--precision", "--tolerance", "--no-timestamp", "--t", "--n"],
    "zeros": ["--input", "--precision", "--width", *FAMILY_FLAGS],
}
OLD_OPTIONS = {  # every option the parser took before each command took only its own, with a value
    "--input": "doc.json", "--sequence": "doc.json", "--out": "out.json", "--format": "csv",
    "--precision": "512", "--tolerance": "1e-9", "--no-timestamp": None, "--strict-extension": None,
    "--debug": None, "--width": "1/1000", "--family": "bell", "--n": "4", "--alpha": "1/2", "--beta": "1/2",
    "--b": "2", "--c": "1", "--kappa": "1", "--r": "n+1", "--a": "1", "--t": "0",
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
@pytest.mark.parametrize("option", OLD_OPTIONS)
def test_each_command_takes_only_the_options_it_reads(capsys, command, option):
    from ddepoly.cli import build_parser

    argv = [command, option] + ([] if OLD_OPTIONS[option] is None else [OLD_OPTIONS[option]])
    if option in ("--out", "--debug", *COMMAND_OPTIONS[command]):
        build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_parser_registers_84_options():
    import argparse

    from ddepoly.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(set(sp._option_string_actions) - {"-h", "--help"}) for name, sp in sub.choices.items()}
    assert got == {name: sorted(["--out", "--debug", *opts]) for name, opts in COMMAND_OPTIONS.items()}
    assert sum(map(len, got.values())) == 84


@pytest.mark.parametrize("command", ["generate", "zeros"])
def test_freud_precision_comes_from_the_document(capsys, monkeypatch, tmp_path, command):
    # the CSV's 20 digits would not show 256 against 512 bits, so record the argument
    import ddepoly.cli as cli

    seen = []
    orig = cli.freud_recurrence_coeffs
    monkeypatch.setattr(cli, "freud_recurrence_coeffs", lambda t, N, precision: seen.append(precision)
                        or orig(t, N, precision))
    path = tmp_path / "freud.json"
    path.write_text(json.dumps({"family": {"kind": "freud", "t": "0"}, "N": 6, "precision": 512}))
    argv = [command, "--input", str(path)] + (["--no-timestamp"] if command == "generate" else [])
    assert main(argv) == 0
    assert seen == [512]
    assert main([command, "--family", "freud", "--t", "0", "--n", "6", "--precision", "320"]) == 0
    assert seen == [512, 320]


@pytest.mark.parametrize("argv, where", [
    (["verify", "--family", "hermite", "--alpha", "1/2", "--kappa", "7", "--n", "4"], "--alpha"),
    (["generate", "--family", "bell", "--t", "0", "--n", "4"], "--t"),
    (["zeros", "--family", "laguerre", "--beta", "1", "--n", "4"], "--beta"),
    (["admits", "--family", "freud", "--alpha", "1", "--n", "6"], "--alpha"),
])
def test_parameters_the_family_does_not_take_exit_two(capsys, argv, where):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"input error: {where}: ")
    assert "takes no parameter" in captured.err


@pytest.mark.parametrize("family, where", [
    ({"kind": "bell", "alpha": "3", "zzz": "1"}, "$.family.alpha"),
    ({"kind": "jacobi", "alpha": "1/2", "kappa": "1"}, "$.family.kappa"),
])
def test_document_parameters_the_family_does_not_take_exit_two(capsys, tmp_path, family, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"family": family, "N": 6}))
    assert main(["generate", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {where}: ")


def test_unwritable_out_exits_two(capsys, tmp_path):
    out = tmp_path / "missing" / "zeros.csv"
    assert main(["zeros", "--family", "bell", "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: --out: cannot write ")


@pytest.mark.parametrize("command", ["verify", "zeros"])
def test_out_holds_what_stdout_would(capsys, tmp_path, command):
    argv = [command, "--family", "bell", "--n", "5"] + (["--no-timestamp"] if command == "verify" else [])
    code, out = run(capsys, *argv)
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == code == 0
    assert capsys.readouterr().out == "" and path.read_text() == out


# sha256 of one --no-timestamp report of each command besides verify, whose
# reports tests/test_verify.py pins; a change that moves a byte of one must
# say which field changed and why
GOLDEN_CLI_REPORTS = [
    (["generate", "--family", "bell", "--n", "12"], "711772713a88e5d9f2f9770cb77416a52478f122c3b86b615a7d6c31e126db00"),
    (["classify", "--family", "hyp2f1", "--b", "20", "--c", "1", "--n", "10"],
     "062b3765ee7fc63c8c9c185de8132bbf7a6360ad5b2bfbae7e0708ba4583f516"),
    (["admits", "--family", "laguerre", "--alpha", "1/2", "--n", "20"],
     "ba4ca7cf8b1dffa5846d8cc28ddd2dc9133866938919a2d03a0f6dfbe902f470"),
    (["freud-demo", "--t", "-1", "--precision", "512"], "e99527b93e4a656e052fc52469a1f910ab9e18cc1f2431462ba38c5d66be89f6"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_CLI_REPORTS, ids=[a[0] for a, _ in GOLDEN_CLI_REPORTS])
def test_reports_byte_stable(capsys, argv, digest):
    import hashlib

    code, out = run(capsys, *argv, "--no-timestamp")
    assert code in (0, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", ["0", "5"])
def test_freud_demo_refuses_fewer_than_six_members(capsys, n):
    assert main(["freud-demo", "--n", n, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: $: the demo needs N >= 6 to reach the degree-5 decision\n"


@pytest.mark.parametrize("command, flag", [(c, f) for c, opts in COMMAND_OPTIONS.items() if "--input" in opts
                                           for f in (*FAMILY_FLAGS, "--precision") if f in opts])
def test_flags_beside_input_exit_two_naming_the_flag(capsys, tmp_path, command, flag):
    # every family flag, and --precision where the family route reads it, is read only without --input
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"family": {"kind": "bell"}, "N": 4}))
    assert main([command, "--input", str(path)]) in (0, 1)
    capsys.readouterr()
    assert main([command, "--input", str(path), flag, OLD_OPTIONS[flag]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {flag}: not read with --input, whose document holds the input\n"
