import json

import pytest

from ddepoly.cli import main


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
    code, out = run(capsys, "zeros", "--family", "bell", "--n", "4", "--no-timestamp")
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


def test_zeros_refuses_close_float_roots(capsys, tmp_path):
    # the float quintic (x-1)(x-1-1e-14)(x-2)(x+3)x has five real roots;
    # float isolation cannot separate two of them and must not drop one
    import mpmath

    with mpmath.workprec(256):
        coeffs = [mpmath.mpf(1)]
        for r in (1, 1 + mpmath.mpf("1e-14"), 2, -3, 0):
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        doc = {"sequence": [[mpmath.nstr(c, 80) for c in coeffs]], "precision": 256}
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "zeros", "--input", str(path))
    assert code == 3


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
    # an isolator that hands refinement an interval with a root at its open
    # end breaks a kernel invariant: exit 4, never "input error" (exit 2)
    from fractions import Fraction

    from ddepoly.roots import Interval, _Isolator

    monkeypatch.setattr(_Isolator, "isolate", lambda self: ([Interval(Fraction(0), Fraction(1))], None))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"sequence": [["1"], ["-1", "2"], ["0", "-1", "2"]]}))
    code = main(["zeros", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("internal error: ")
