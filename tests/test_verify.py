import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ddepoly.cli import main
from ddepoly.dde import CoefficientPair, CoefficientRule, CoefficientTable
from ddepoly.documents import dump_report
from ddepoly.families import FamilySpec, coefficient_source
from ddepoly.kfactor import classify
from ddepoly.poly import NEG_INF, POS_INF, KindMismatchError, Poly, Surd, format_scalar, is_finite
from ddepoly.roots import Interval, certify_next, isolate_roots, sturm_count
from ddepoly.verify import _containment_witness, check_k_identity, verify_sequence

P = Poly.rational


def test_square_factor_family_case_a():
    rep = verify_sequence(FamilySpec("euler_frobenius", {"kappa": "1", "r": "n+1"}), 10)
    assert rep.decision.case == "a"
    assert rep.agreement
    assert rep.decision.alphas[0] == -1 and rep.decision.betas[0] == 1
    for r in rep.records:
        assert r.real_simple and r.containment == "ok"
        if r.interlace_with_next is not None:
            assert r.interlace_with_next == "strict"


def test_bell_family_case_c_closed_endpoint():
    rep = verify_sequence(FamilySpec("bell"), 12)
    assert rep.decision.case == "c"
    assert rep.agreement
    assert rep.decision.containment[0] == (NEG_INF, Fraction(0), False, True)
    # every member has its largest zero exactly at the closed endpoint
    for r in rep.records:
        assert r.zeros[-1].is_point and r.zeros[-1].lo == 0
        assert r.containment == "ok"


def zeros_of(p, width):
    return tuple(r.interval for r in isolate_roots(p, width).roots)


def containment(p, bounds):
    return _containment_witness(p, zeros_of(p, Fraction(1)), bounds)


def test_case_c_rejects_zero_beyond_closed_endpoint():
    # containment is decided by counting the zeros beyond each claimed end:
    # bounds are (alpha, beta, lo_closed, hi_closed); zeros isolated to width
    # 1 are exact points for p, and intervals holding the surd endpoints for q
    p = P([0, 1]) * P([-1, 1])  # roots 0 and 1
    assert containment(p, (NEG_INF, Fraction(0), False, True)) == "1 zero(s) beyond right endpoint 0]"
    assert containment(p, (NEG_INF, Fraction(1), False, True)) is None
    assert containment(p, (NEG_INF, Fraction(1), False, False)) == "1 zero(s) beyond right endpoint 1)"
    assert containment(p, (NEG_INF, Fraction(-1), False, True)) == "2 zero(s) beyond right endpoint -1]"
    # a zero below an open left end
    assert containment(p, (Fraction(1, 2), POS_INF, False, False)) == "1 zero(s) below left endpoint (1/2"
    # a zero exactly on the left end: fine when closed, outside when open
    assert containment(p, (Fraction(0), Fraction(1), True, True)) is None
    assert containment(p, (Fraction(0), POS_INF, False, False)) == "1 zero(s) below left endpoint (0"
    # surd endpoints (irrational roots of A) are compared exactly: sqrt(2) - 1/2
    # lies between the roots, and 1 - 10^-60 sqrt(2) just below 1
    mid, below_one = Surd(Fraction(-1, 2), 1, 2), Surd(1, Fraction(-1, 10**60), 2)
    assert containment(p, (NEG_INF, mid, False, False)) == "1 zero(s) beyond right endpoint -1/2 + 1*sqrt(2))"
    assert containment(p, (NEG_INF, below_one, False, True)) == f"1 zero(s) beyond right endpoint 1 - 1/{10**60}*sqrt(2)]"
    assert containment(p, (mid, POS_INF, True, False)) == "1 zero(s) below left endpoint [-1/2 + 1*sqrt(2)"
    assert containment(p, (Surd(0, -1, 2), Surd(1, Fraction(1, 10**60), 2), False, False)) is None
    # a surd endpoint that is a root of p counts as inside when closed
    q = P([-2, 0, 1]) * P([1, 1])  # roots -sqrt 2, -1, sqrt 2
    lo, hi = Surd(0, -1, 2), Surd(0, Fraction(1, 2), 8)
    assert containment(q, (lo, hi, True, True)) is None
    assert containment(q, (lo, hi, True, False)) == "1 zero(s) beyond right endpoint 1/2*sqrt(8))"


def sturm_witness(p, bounds):
    """The containment witness as Sturm counts word it: the oracle."""
    alpha, beta, lo_closed, hi_closed = bounds
    if is_finite(beta):
        n = sturm_count(p, Interval(beta, POS_INF, lo_open=hi_closed))
        if n:
            return f"{n} zero(s) beyond right endpoint {format_scalar(beta)}{']' if hi_closed else ')'}"
    if is_finite(alpha):
        n = sturm_count(p, Interval(NEG_INF, alpha, hi_open=lo_closed))
        if n:
            return f"{n} zero(s) below left endpoint {'[' if lo_closed else '('}{format_scalar(alpha)}"
    return None


def test_containment_witness_matches_sturm_counts():
    # seeded real-simple products of rational roots and surd pairs a +- sqrt(d),
    # leads of both signs; endpoints on a root, just beside one, anywhere, or
    # infinite, each end closed or open; zeros from isolate_roots at widths
    # that leave endpoints inside isolating intervals, and from certify_next
    # off the derivative's zeros
    rng = random.Random(20)
    certified = 0
    for _ in range(120):
        rational = {Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))}
        surds = {(rng.randint(-4, 4), rng.choice([2, 3, 5])) for _ in range(rng.randint(0, 1))}
        p = P([rng.choice([-1, 1]) * Fraction(rng.randint(1, 5), rng.randint(1, 3))])
        for r in rational:
            p = p * P([-r, 1])
        for a, d in surds:
            p = p * P([a * a - d, -2 * a, 1])
        roots = sorted(rational) + [Surd(a, s, d) for a, d in surds for s in (-1, 1)]
        ends = [Fraction(rng.randint(-40, 40), rng.randint(1, 4))]
        for x in rng.sample(roots, min(2, len(roots))):
            tiny = Fraction(rng.choice([-1, 1]), 10 ** rng.randint(1, 30))
            ends += [x, x + tiny] if isinstance(x, Fraction) else [x, Surd(x.a + tiny, x.b, x.d)]
        ends.append(Surd(Fraction(rng.randint(-40, 40), rng.randint(1, 4)), Fraction(1, rng.randint(1, 9)), 7))
        width = rng.choice([Fraction(4), Fraction(1, 2), Fraction(1, 10**9)])
        sources = [zeros_of(p, width)]
        dp = p.derivative()
        cert = certify_next(dp, zeros_of(dp, Fraction(1, 10**6)), p, width) if dp.degree else None
        if cert is not None:
            certified += 1
            sources.append(cert.zeros)
        for _ in range(8):
            alpha = rng.choice(ends + [NEG_INF])
            beta = rng.choice(ends + [POS_INF])
            bounds = (alpha, beta, rng.random() < 0.5, rng.random() < 0.5)
            want = sturm_witness(p, bounds)
            for zeros in sources:
                assert _containment_witness(p, zeros, bounds) == want, (p, zeros, bounds)
    assert certified >= 60


def test_verify_takes_rational_data_only(capsys, tmp_path):
    # members are rational wherever verify checks them: float pairs are
    # refused by the classification, and a float B_0 before rational pairs
    # by generation
    F = lambda c: Poly.floating(c, prec=128)  # noqa: E731
    floats = CoefficientTable([CoefficientPair(F([1]), F([0, 1]))] + [CoefficientPair(F([-1]), F([0, 1]))] * 2)
    with pytest.raises(ValueError, match="classification requires rational coefficients"):
        verify_sequence(floats, 3)
    mixed = CoefficientTable([CoefficientPair(F([1]), F([0.5, 1]))] + [CoefficientPair(P([-1]), P([0, 1]))] * 2)
    with pytest.raises(KindMismatchError):
        verify_sequence(mixed, 3)
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps({"coefficients": [{"A": ["1.0"], "B": ["0.0", "1.0"]}]
                                + [{"A": ["-1.5"], "B": ["0.0", "1.0"]}] * 2, "N": 3}))
    assert main(["verify", "--input", str(path), "--no-timestamp"]) == 2
    assert "classification requires rational coefficients" in capsys.readouterr().err


def test_hypergeometric_family_case_a_unit_interval():
    rep = verify_sequence(FamilySpec("hyp2f1", {"b": 20, "c": 1}), 10)
    assert rep.decision.case == "a"
    assert rep.agreement
    assert rep.decision.alphas[0] == 0 and rep.decision.betas[0] == 1


def test_classical_families_agree():
    for spec in (
        FamilySpec("hermite"),
        FamilySpec("laguerre", {"alpha": Fraction(1)}),
        FamilySpec("laguerre", {"alpha": Fraction(-1, 2)}),
        FamilySpec("jacobi", {"alpha": Fraction(1, 2), "beta": Fraction(1, 2)}),
        FamilySpec("jacobi", {"alpha": Fraction(2), "beta": Fraction(-1, 2)}),
        FamilySpec("hermite_like", {"kappa": "2"}),
        FamilySpec("vertgeim", {"a": "1", "b": "4", "alpha": "1"}),
    ):
        rep = verify_sequence(spec, 10)
        assert rep.decision.case == "a", spec.kind
        assert rep.agreement, (spec.kind, rep.failures)


def test_vertgeim_irrational_endpoints_numeric():
    # the endpoints +-sqrt 2 are exact surds, so nothing in the report is numeric
    rep = verify_sequence(FamilySpec("vertgeim", {"a": "1", "b": "2", "alpha": "1"}), 8)
    assert rep.decision.case == "a"
    assert not rep.numeric and not rep.decision.numeric
    assert rep.agreement
    assert rep.decision.betas[0] == Surd(0, 1, 2) and rep.decision.alphas[0] == Surd(0, -1, 2)


def test_case_d_synthetic_extremes_and_interlacing():
    def pair(n):
        if n == 0:
            return CoefficientPair(P([1]), P([0, 1]))
        return CoefficientPair(P([-((n + 1) ** 2), 0, 1]), Poly.zero())

    rep = verify_sequence(CoefficientRule(pair, name="two-sided-growth"), 10)
    assert rep.decision.case == "d"
    assert rep.agreement
    assert rep.decision.containment is None
    for r in rep.records:
        if r.interlace_with_next is not None:
            assert r.interlace_with_next == "strict"


def test_b_zero_with_irrational_a_roots_is_numeric():
    # A_n = x^2 - 2(n+1), B_n = 0: the endpoints +-sqrt(2(n+1)) are exact surds
    def pair(n):
        if n == 0:
            return CoefficientPair(P([1]), P([0, 1]))
        return CoefficientPair(P([-2 * (n + 1), 0, 1]), Poly.zero())

    assert classify(pair(2)).a_roots == ((Surd(0, Fraction(-1, 2), 24), 1), (Surd(0, Fraction(1, 2), 24), 1))
    rep = verify_sequence(CoefficientRule(pair), 6)
    assert rep.decision.case == "d"
    assert not rep.numeric and not rep.decision.numeric
    assert list(rep.decision.betas) == [Fraction(2)] + [Surd(0, 1, 2 * (n + 1)) for n in range(2, 7)]
    assert rep.agreement


def test_immediate_truncation_reports_degenerate():
    # B_0 = 0 with constant A gives P_1 = 0: no crash, degenerate report
    src = CoefficientRule(lambda n: CoefficientPair(P([1]), Poly.zero()))
    rep = verify_sequence(src, 4)
    assert not rep.agreement and rep.decision is None
    assert rep.truncated_at == 1
    assert any("zero polynomial" in f for f in rep.failures)


def test_degenerate_first_member_reports():
    # B_0 constant: P_1 has degree 0, flagged as an immediate collapse
    def pair(n):
        if n == 0:
            return CoefficientPair(P([1]), P([3]))
        return CoefficientPair(P([-1]), P([0, 2]))

    rep = verify_sequence(CoefficientRule(pair), 4)
    assert not rep.agreement and rep.decision is None
    assert any("collapse at P_1" in f for f in rep.failures)


def test_complex_rooted_member_recorded_not_raised():
    # once the quadratic damping weakens to |x|^-1, degree 3 escapes: P_3 =
    # 2x(x^2+9) has complex zeros; the decision must refuse (slow decay) and
    # the empirical side must record the bad member instead of raising
    def pair(n):
        if n == 0:
            return CoefficientPair(P([1]), P([0, -2]))
        if n == 1:
            return CoefficientPair(P([3, 0, 1]), P([0, -2]))
        return CoefficientPair(P([3, 0, 1]), P([0, -1]))

    rep = verify_sequence(CoefficientRule(pair), 4)
    assert not rep.agreement
    assert rep.decision.case == "none"
    assert "algebraically" in rep.decision.diagnosis["a"]
    # with no case decided, the failures are the diagnosis alone, not the members' findings
    assert rep.failures == tuple(f"case ({c}) hypothesis fails: {why}" for c, why in rep.decision.diagnosis.items())
    bad = [r for r in rep.records if not r.real_simple]
    assert bad and bad[0].n == 3
    prev = rep.records[1]
    assert prev.interlace_with_next == "fail"


def test_degree_collapse_reported():
    def pair(n):
        if n == 0:
            return CoefficientPair(Poly.zero(), P([0, 1]))  # P1 = x
        return CoefficientPair(P([0, 0, 1]), P([1, -1]))  # keeps degree at 1

    rep = verify_sequence(CoefficientRule(pair), 4)
    assert not rep.agreement
    assert rep.collapsed
    assert any("collapse" in f for f in rep.failures)


def test_one_collapse_failure_for_all_collapsed_members():
    # hermite whose pair 3, A = -1 and B = 1, keeps P_4 at degree 3: P_4..P_7 all
    # collapse, since deg P_(k+1) <= deg P_k + 1, and the first collapse alone is worded
    table = GOLDEN_REPORTS[-1][1]
    rep = verify_sequence(table, 7)
    assert rep.collapsed == (4, 5, 6, 7)
    assert [f for f in rep.failures if "collapse" in f] == ["degree collapse at P_4; verification truncated to n <= 3"]


def test_check_k_identity_examples():
    assert check_k_identity(CoefficientPair(P([-1]), P([0, 2]))) < 1e-5
    assert check_k_identity(CoefficientPair(P([0, 1]), Poly.zero())) == 0.0
    assert check_k_identity(CoefficientPair(P([0, 1]), P([0, 1]))) < 1e-5


def test_check_k_identity_matches_precomputed_classification():
    c = CoefficientPair(P([1, 0, -1]), P([0, -6]))
    k = classify(c)
    assert check_k_identity(c, k) < 1e-5


def test_check_k_identity_is_exact():
    # the identity holds exactly at surd roots, a double root and an
    # irreducible A; an exponent or a pole off by 10^-40, or a surd term
    # without its conjugate, fails
    tiny = Fraction(1, 10**40)
    for a, b in (([-1, -1, 1], [1, 1]), ([1, -2, 1], [-6, 2]), ([3, 0, 1], [1, 2])):
        c = CoefficientPair(P(a), P(b))
        k = classify(c)
        assert check_k_identity(c, k) == 0.0
        form = k.form
        if form.poles:
            (s, d), = form.poles
            wrong = [replace(form, poles=((s, d + tiny),))]
        elif form.log_terms:
            (s, e), rest = form.log_terms[0], form.log_terms[1:]
            wrong = [replace(form, log_terms=((s, Surd(e.a + tiny, e.b, e.d)),) + rest), replace(form, log_terms=rest)]
        else:
            (cc, p, q), = form.atans
            wrong = [replace(form, atans=((cc + tiny, p, q),))]
        for f in wrong:
            assert check_k_identity(c, replace(k, form=f)) == math.inf


def test_verify_rejects_small_n():
    with pytest.raises(ValueError):
        verify_sequence(FamilySpec("bell"), 1)


# sha256 of each --no-timestamp verify report; a change that moves a byte of
# one must say which field changed and why
GOLDEN_REPORTS = [
    ("bell", {}, 12, "314cab66f50bf3f92835dc5f6f924f08a04319f1861e27a22b483bbbdd6a40be"),
    ("hermite", {}, 12, "bb51f04e566c575ea166a1272f58c996d09e42c296781d44c5ca861b7489cd6b"),
    ("jacobi", {"alpha": "1/2", "beta": "1/2"}, 12,
     "dc1ed805e659f7ba365bc4bd706fe950fe9b3468657d2161150ba234e25a70c6"),
    ("euler_frobenius", {"kappa": "1", "r": "n+1"}, 12,
     "64f1c462ec8bcc408ac9bdd8aca35fbe2e2df9c92e81f46336175166c82f453e"),
    ("laguerre", {"alpha": "1/2"}, 12, "f5d42140b062ba0c292e10011cca35d4daac8395071026d70146803a70f11268"),
    ("hyp2f1", {"b": "40", "c": "1"}, 12, "42e6eb32326047ea66b24987e7c5a92d2e0bf19f6819aa997a48e4336add7f82"),
    ("vertgeim", {"a": "1", "b": "2", "alpha": "1"}, 12,
     "29d8178d3c54c855a27d1cb03b6f431b892fd3148a1a6c425b83be7205fb1a51"),
    ("hermite_like", {"kappa": "2"}, 12, "86d40b53bdd044e29acff03ac4735bf63c60d1d150e57acd4de597f8d6a0a547"),
    ("bell", {}, 22, "670fe75c34eae6ba40f52b4f331026b013029f296d430c5f39e719fd6fb45e02"),
    ("hermite", {}, 22, "141e27a0455c0ea3498649834ccd2304ecd87ba8341e60efa696b5162996ad28"),
    # tables no case decides: A_n = (3 + 2n)(2x^2 - 2), B_n = n + (3 - 2n)x, whose case (a) fails
    # at n=1 and (b), (c) at n=2; and hermite whose pair 3, A = -1 and B = 1, keeps P_4 at degree 3
    ("open-example", CoefficientTable([CoefficientPair(P([1]), P([0, 1]))] + [
        CoefficientPair(P([-2 * (3 + 2 * n), 0, 2 * (3 + 2 * n)]), P([n, 3 - 2 * n])) for n in range(1, 9)]), 8,
     "99d64a9278f9cb037a6d2ace6ce5a1a5e5e4c8efcb5c2c00920ebc56670a8bdb"),
    ("hermite-collapse", CoefficientTable([CoefficientPair(P([-1]), P([1 if n == 3 else 0, 0 if n == 3 else 2]))
                                           for n in range(8)]), 7,
     "1cd0935c2afc253a224ede7d3f6c248ab7f33698143170e432a5b31177910810"),
]


@pytest.mark.parametrize("kind, params, N, digest", GOLDEN_REPORTS,
                         ids=[f"{k}-{n}" for k, _, n, _ in GOLDEN_REPORTS])
def test_verify_reports_byte_stable(kind, params, N, digest):
    source = FamilySpec(kind, dict(params)) if isinstance(params, dict) else params
    report = verify_sequence(source, N)
    text = dump_report({"command": "verify", "report": report}, timestamp=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_takes_each_pair_once():
    # generate reads pairs 0..N-1 and predict 1..N and 0 again; each call of
    # verify_sequence pays for its own pairs, so a second call reads them all again
    laguerre = coefficient_source(FamilySpec("laguerre", {"alpha": "1/2"}))
    calls = []
    counting = CoefficientRule(lambda n: calls.append(n) or laguerre.pair(n), name="laguerre")
    assert verify_sequence(counting, 12).agreement
    assert sorted(calls) == list(range(13))
    report = verify_sequence(counting, 12)
    assert report.family == "laguerre" and sorted(calls) == sorted([*range(13)] * 2)


def test_verify_lets_an_exception_from_pair_through():
    hermite = coefficient_source(FamilySpec("hermite"))
    err = LookupError("no pair 3")

    def pair(n):
        if n == 3:
            raise err
        return hermite.pair(n)

    with pytest.raises(LookupError) as exc:
        verify_sequence(CoefficientRule(pair), 8)
    assert exc.value is err


def test_one_sturm_chain_per_member(monkeypatch):
    # the six verify-families benchmark families at N=14: 84 members.  Each
    # member is certified from the zeros of the one before by signs of the
    # member alone, and the places of its roots among them give the
    # interlacing verdict, so no remainder sequence is built at all.  The
    # Sturm path, a chain per member, one per adjacent pair and Bell's 13
    # Tarski queries, built 175
    import ddepoly.roots as roots

    calls = []
    orig, orig_prs = roots._remainders, roots._prs
    monkeypatch.setattr(roots, "_remainders", lambda f, g: calls.append(1) or orig(f, g))
    monkeypatch.setattr(roots, "_prs", lambda a, b: calls.append(1) or orig_prs(a, b))
    for kind, params, _, _ in GOLDEN_REPORTS[:6]:
        assert verify_sequence(FamilySpec(kind, params), 14).agreement
    assert len(calls) == 0


ORACLE_FAMILIES = [(k, p) for k, p, _, _ in GOLDEN_REPORTS[:6]] + [
    ("jacobi", {"alpha": "-1/2", "beta": "3"}),
    ("hermite_like", {"kappa": "n+1"}),
    ("vertgeim", {"a": "1", "b": "2", "alpha": "1"}),
]


def failing_table(a0, a1, beta):
    # P_1 = x, P_2 = x^2 - 1 and P_3 = 2x A_2 + (x + beta) P_2 with A_2 = a0 + a1 x:
    # three real roots off P_2's gaps, or a double one; P_4 and P_5 have complex roots
    return CoefficientTable([
        CoefficientPair(P([1]), P([0, 1])), CoefficientPair(P([-1]), P([0, 1])),
        CoefficientPair(P([a0, a1]), P([beta, 1])), CoefficientPair(P([10]), P([0, 1])),
        CoefficientPair(P([-1]), P([0, 1])),
    ])


ORACLE_TABLES = [
    failing_table(Fraction(27, 2), Fraction(-33, 2), 24),  # P_3 = (x - 2)(x - 3)(x - 4)
    failing_table(Fraction(21, 2), -12, 16),  # P_3 = (x - 2)^2 (x - 4)
]


@pytest.mark.parametrize("source", [FamilySpec(k, dict(p)) for k, p in ORACLE_FAMILIES] + ORACLE_TABLES,
                         ids=[k for k, _ in ORACLE_FAMILIES] + ["off-gap-roots", "double-root"])
def test_certificate_reports_match_the_sturm_path(monkeypatch, source):
    # every report is byte-identical to the one made with the certificate
    # declining everywhere, so that each member takes the Sturm path
    import ddepoly.roots as roots
    import ddepoly.verify as verify

    N = 30 if isinstance(source, FamilySpec) else 5
    sturm_calls = []
    orig = verify.interlaces
    monkeypatch.setattr(verify, "interlaces", lambda *a, **k: sturm_calls.append(1) or orig(*a, **k))
    certified = dump_report({"command": "verify", "report": verify_sequence(source, N)}, timestamp=False)
    monkeypatch.setattr(roots, "certify_next", lambda *args: None)
    sturm = dump_report({"command": "verify", "report": verify_sequence(source, N)}, timestamp=False)
    assert certified == sturm
    if isinstance(source, FamilySpec):
        assert '"agreement": true' in certified
    else:  # the failures and their witnesses came from the Sturm path
        assert "not real-simple" in certified and '"fail"' in certified
        assert sturm_calls
