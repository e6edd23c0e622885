import hashlib
from fractions import Fraction

import pytest

from ddepoly.dde import CoefficientPair, CoefficientRule
from ddepoly.documents import dump_report
from ddepoly.families import FamilySpec
from ddepoly.kfactor import classify
from ddepoly.poly import NEG_INF, POS_INF, Poly
from ddepoly.verify import check_k_identity, verify_sequence

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


def test_case_c_rejects_zero_beyond_closed_endpoint():
    # containment is decided by counting the zeros beyond each claimed end:
    # bounds are (alpha, beta, lo_closed, hi_closed)
    import mpmath

    from ddepoly.verify import _check_containment

    p = P([0, 1]) * P([-1, 1])  # roots 0 and 1
    assert _check_containment(p, (NEG_INF, Fraction(0), False, True)) == "1 zero(s) beyond right endpoint 0]"
    assert _check_containment(p, (NEG_INF, Fraction(1), False, True)) is None
    assert _check_containment(p, (NEG_INF, Fraction(1), False, False)) == "1 zero(s) beyond right endpoint 1)"
    assert _check_containment(p, (NEG_INF, Fraction(-1), False, True)) == "2 zero(s) beyond right endpoint -1]"
    # a zero below an open left end
    assert _check_containment(p, (Fraction(1, 2), POS_INF, False, False)) == "1 zero(s) below left endpoint (1/2"
    # a zero exactly on the left end: fine when closed, outside when open
    assert _check_containment(p, (Fraction(0), Fraction(1), True, True)) is None
    assert _check_containment(p, (Fraction(0), POS_INF, False, False)) == "1 zero(s) below left endpoint (0"
    # mpf endpoints (irrational roots of A) are compared as the dyadics they hold
    with mpmath.workprec(256):
        half, one = mpmath.mpf("0.5"), mpmath.mpf(1)
        above_one = one + mpmath.mpf(2) ** -200
    assert _check_containment(p, (NEG_INF, half, False, False)) == "1 zero(s) beyond right endpoint 0.5)"
    assert _check_containment(p, (NEG_INF, one, False, True)) is None
    assert _check_containment(p, (NEG_INF, one, False, False)) == "1 zero(s) beyond right endpoint 1.0)"
    assert _check_containment(p, (-half, above_one, False, False)) is None


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
    import mpmath

    rep = verify_sequence(FamilySpec("vertgeim", {"a": "1", "b": "2", "alpha": "1"}), 8)
    assert rep.decision.case == "a"
    assert rep.numeric and rep.decision.numeric
    assert rep.agreement
    with mpmath.workprec(256):
        beta = rep.decision.betas[0]
        assert abs(beta * beta - 2) < mpmath.mpf(10) ** -70


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
    # A_n = x^2 - 2(n+1), B_n = 0: the endpoints +-sqrt(2(n+1)) are held as big floats
    def pair(n):
        if n == 0:
            return CoefficientPair(P([1]), P([0, 1]))
        return CoefficientPair(P([-2 * (n + 1), 0, 1]), Poly.zero())

    assert classify(pair(2)).numeric
    rep = verify_sequence(CoefficientRule(pair), 6)
    assert rep.decision.case == "d"
    assert rep.numeric and rep.decision.numeric
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


def test_check_k_identity_examples():
    assert check_k_identity(CoefficientPair(P([-1]), P([0, 2]))) < 1e-5
    assert check_k_identity(CoefficientPair(P([0, 1]), Poly.zero())) == 0.0
    assert check_k_identity(CoefficientPair(P([0, 1]), P([0, 1]))) < 1e-5


def test_check_k_identity_matches_precomputed_classification():
    c = CoefficientPair(P([1, 0, -1]), P([0, -6]))
    k = classify(c)
    assert check_k_identity(c, k, samples=30) < 1e-5


def test_verify_rejects_small_n():
    with pytest.raises(ValueError):
        verify_sequence(FamilySpec("bell"), 1)


# sha256 of each --no-timestamp verify report; a change that moves a byte of
# one must say which field changed and why
GOLDEN_REPORTS = [
    ("bell", {}, 12, "c3ca343ad552c1c2e0427f02386691c8e6283e8bd30f340d4f9454af720c6503"),
    ("hermite", {}, 12, "a65a9b4edec60b7e6eb09e8a6e3fa59495289fc47d792d84cd3a4b6847f03b8b"),
    ("jacobi", {"alpha": "1/2", "beta": "1/2"}, 12,
     "923cea1a75b19bf66f0465dccbadf7de8a01253794a4a42f9a2b76e17f4b98ac"),
    ("euler_frobenius", {"kappa": "1", "r": "n+1"}, 12,
     "6080e80caeb6fe868d5a8a37891b999e7f1eca1681b6ed4843b4e1e7e828b7ce"),
    ("laguerre", {"alpha": "1/2"}, 12, "07646a748a1882a32356466d166b14e86cc86a04bddcb21f0562164fa9452016"),
    ("hyp2f1", {"b": "40", "c": "1"}, 12, "2c8d2c34f5ca20911a09d0a3b4864515dfbe48bd2555d27e62cd2c1616e65510"),
    ("vertgeim", {"a": "1", "b": "2", "alpha": "1"}, 12,
     "fc9b5d281a92dd3b0ae6efeb2d5dc6fbe61a09f01592bdbd431d7da3697b2958"),
    ("hermite_like", {"kappa": "2"}, 12, "5e2adc9cbe120c92cd55398a49d8ed24e85bbb94889bae28843fd0fbe136fcb5"),
    ("bell", {}, 22, "6f6df4b04ab4727bf84b8cf3167aca0713a2c71b3d11367c31026c8e19787691"),
    ("hermite", {}, 22, "244707431c1e3a9f4c39d4301f38faa006d3665aab042aeca4c68c0dc8ebc9a9"),
]


@pytest.mark.parametrize("kind, params, N, digest", GOLDEN_REPORTS,
                         ids=[f"{k}-{n}" for k, _, n, _ in GOLDEN_REPORTS])
def test_verify_reports_byte_stable(kind, params, N, digest):
    report = verify_sequence(FamilySpec(kind, dict(params)), N)
    text = dump_report({"command": "verify", "report": report}, timestamp=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_one_sturm_chain_per_member(monkeypatch):
    # the six verify-families benchmark families at N=14: 84 members.  One
    # chain per member plus one remainder sequence per adjacent pair (and
    # Bell's Tarski queries and rational-root deflations) gives 206; a chain
    # per check, as each check once built its own, gave 428
    import ddepoly.roots as roots

    calls = []
    orig = roots._remainders
    monkeypatch.setattr(roots, "_remainders", lambda f, g: calls.append(1) or orig(f, g))
    for kind, params, _, _ in GOLDEN_REPORTS[:6]:
        assert verify_sequence(FamilySpec(kind, params), 14).agreement
    assert len(calls) <= 206
