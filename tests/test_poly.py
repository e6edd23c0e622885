import random
from fractions import Fraction
from math import prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddepoly.poly import (
    NEG_INF,
    POS_INF,
    InternalError,
    KindMismatchError,
    Poly,
    Surd,
    _PRIME,
    _even_part,
    _quo,
    _remainders,
    _squarefree,
    format_poly,
    format_scalar,
    squarefree_decomposition,
    to_mpf,
)
from sympy_oracle import gcd, sqf_list, surd_to_sympy

P = Poly.rational


def fractions(max_num=30, max_den=6):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def rational_polys(max_deg=6):
    return st.lists(fractions(), min_size=0, max_size=max_deg + 1).map(Poly.rational)


def test_derivative_linear():
    assert P([0, 2]).derivative() == P([2])


def test_gcd_shared_factor():
    g = P([-1, 0, 1]).gcd(P([-1, 1]))
    assert g == P([-1, 1])  # monic x - 1


def test_divrem_one_step():
    q, r = P([0, 0, 0, 1]).divrem(P([-1, 0, 1]))
    assert q == P([0, 1]) and r == P([0, 1])


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        P([1, 1]).divrem(Poly.zero())


def test_kind_mismatch():
    with pytest.raises(KindMismatchError):
        P([1, 1]) + Poly.floating([1, 1])
    with pytest.raises(KindMismatchError):
        Poly.floating([1]).gcd(Poly.floating([1]))


def test_degree_and_zero():
    assert Poly.zero().degree == -1
    assert P([0, 0, 3]).degree == 2
    assert P([5]).degree == 0


def test_float_precision_floor():
    with pytest.raises(ValueError):
        Poly.floating([1], prec=32)


@settings(max_examples=150, deadline=None)
@given(rational_polys(), rational_polys())
def test_divrem_reconstructs(p, d):
    if d.is_zero:
        return
    q, r = p.divrem(d)
    assert q * d + r == p
    assert r.degree < d.degree


@settings(max_examples=100, deadline=None)
@given(rational_polys(max_deg=4), rational_polys(max_deg=4))
def test_gcd_divides_both(p, q):
    if p.is_zero and q.is_zero:
        return
    g = p.gcd(q)
    if g.degree >= 0 and not g.is_zero:
        if not p.is_zero:
            assert (p % g).is_zero
        if not q.is_zero:
            assert (q % g).is_zero
        assert g.lead == 1
    assert g == gcd(p, q)


def random_factor(rng):
    """A monic irreducible factor over Q: rational linear, a real surd pair
    (x - a)^2 - d or a complex pair (x + b)^2 + c."""
    kind = rng.randrange(3)
    if kind == 0:
        return P([-Fraction(rng.randint(-20, 20), rng.randint(1, 6)), 1])
    a, d = rng.randint(-6, 6), rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
    if kind == 1:
        return P([a * a - d, -2 * a, 1])
    return P([a * a + d, 2 * a, 1])


def test_gcd_matches_sympy_on_shared_factors_and_zero():
    rng = random.Random(5)
    for _ in range(100):
        h, f, g = (prod((random_factor(rng) for _ in range(rng.randint(0, 3))), start=Poly.one()) for _ in "hfg")
        a, b = (f * h).scale(Fraction(rng.randint(-9, 9) or 1, 7)), (g * h).scale(Fraction(3, rng.randint(1, 5)))
        assert a.gcd(b) == gcd(a, b)
        assert a.gcd(Poly.zero()) == Poly.zero().gcd(a) == gcd(a, Poly.zero()) == a.monic()
    with pytest.raises(ValueError):
        Poly.zero().gcd(Poly.zero())


def test_squarefree_decomposition_matches_sympy_sqf_list():
    rng = random.Random(11)
    for _ in range(150):
        p = P([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))])
        factors, n = set(), rng.randint(1, 4)
        while len(factors) < n:
            factors.add(random_factor(rng))
        for f in factors:
            p = p * f ** rng.randint(1, 4)
        decomp = squarefree_decomposition(p)
        assert all(f.lead == 1 for f, _ in decomp)
        assert decomp == sqf_list(p)
        assert squarefree_decomposition(p, _remainders(p, p.derivative())[-1]) == decomp


def test_squarefree_certificate_matches_gcd_oracle():
    # random products with and without a square factor; the factors x - m,
    # x - m - 1, x and m x + 1 for the certificate's prime m collide modulo m
    # or lose their lead there, which sends the certificate to the exact chain
    rng, m = random.Random(19), _PRIME
    seen = {True: 0, False: 0}
    for _ in range(300):
        p = P([rng.choice([1, -3, m, 2 * m])])
        for _ in range(rng.randint(1, 4)):
            f = random_factor(rng) if rng.random() < 0.7 else rng.choice([P([-m, 1]), P([-m - 1, 1]), P([0, 1]), P([1, m])])
            p = p * f ** rng.choice([1, 1, 2])
        a = p.primitive_int_coeffs()
        squarefree = gcd(p, p.derivative()).degree == 0
        assert _squarefree(a) == squarefree, p
        seen[squarefree] += 1
    assert min(seen.values()) > 50
    # sparse ones, whose Euclid modulo m drops more than one degree in a step
    for f in (P([1, 1, 0, 0, 1]), P([1, 2, 0, 0, 0, 1]), P([3, -1, 0, 0, 0, 0, 0, 1])):
        for p in (f, f * f, f * P([-2, 1]), f * P([-2, 1]) ** 2):
            assert _squarefree(p.primitive_int_coeffs()) == (gcd(p, p.derivative()).degree == 0), p


def test_squarefree_with_parity_is_decided_on_the_even_part(monkeypatch):
    # p = x^s r(x^2) for s = 0..3, r(0) != 0, with r squarefree or with a
    # square factor, and r's lead divisible by the prime or not: p is
    # squarefree iff s <= 1 and r is, and only r ever builds a chain
    import ddepoly.poly as poly

    m, rng = _PRIME, random.Random(37)
    chains = []
    prs = poly._prs
    monkeypatch.setattr(poly, "_prs", lambda a, b: chains.append(tuple(a)) or prs(a, b))
    evens = [P([-1, 1]) * P([3, 1]), P([-1, 1]) ** 2 * P([3, 1]), P([2, 0, 1]) * P([-5, 2]), P([1, 0, 1]) ** 2,
             P([-1, m]), P([-1, m]) ** 2 * P([1, 1])]
    while len(evens) < 30:
        r = P([Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        for _ in range(rng.randint(1, 3)):
            r = r * random_factor(rng) ** rng.choice([1, 1, 2])
        if r.coeffs[0]:
            evens.append(r)
    seen = set()
    for r in evens:
        b = r.primitive_int_coeffs()
        for s in range(4):
            p = P([0] * s + [c for v in r.coeffs for c in (v, 0)][:-1])  # x^s r(x^2)
            a = p.primitive_int_coeffs()
            assert _even_part(a) == (s, b)
            squarefree = gcd(p, p.derivative()).degree == 0
            chains.clear()
            assert _squarefree(a) == squarefree, (s, r)
            if s > 1:
                assert not chains
            elif squarefree and b[-1] % m:  # the modular certificate suffices
                assert not chains, (s, r)
            else:
                assert chains == [b], (s, r)
            seen.add((s, squarefree, b[-1] % m == 0))
    assert {(s, f, True) for s in (0, 1) for f in (True, False)} <= seen
    assert {(s, f, False) for s in (0, 1) for f in (True, False)} <= seen
    assert {(s, False, False) for s in (2, 3)} <= seen


def test_yun_reassembles():
    p = P([0, 1]) * P([-1, 1]) ** 2 * P([3, 1]) ** 3
    decomp = squarefree_decomposition(p)
    assert [(format_poly(f), m) for f, m in decomp] == [("x", 1), ("x - 1", 2), ("x + 3", 3)]
    rebuilt = Poly.one()
    for f, m in decomp:
        rebuilt = rebuilt * f**m
    assert rebuilt == p.monic()


def test_integer_quotient_refuses_a_remainder():
    assert _quo([-2, 1, 1], [-1, 1]) == [2, 1]  # (x - 1)(x + 2)
    with pytest.raises(InternalError):
        _quo([1, 0, 1], [-1, 1])


def test_eval_modes():
    p = P(["1/2", 0, 1])
    assert p(Fraction(2)) == Fraction(9, 2)
    assert abs(p(mpmath.mpf(2)) - 4.5) < 1e-15


def test_infinity_ordering():
    assert NEG_INF < Fraction(-(10**100))
    assert POS_INF > Fraction(10**100)
    assert NEG_INF < POS_INF
    assert -POS_INF == NEG_INF
    assert not (POS_INF < POS_INF)
    s = Surd(10**100, 3, 2)
    assert NEG_INF < s < POS_INF and POS_INF > s > NEG_INF
    assert not (s < NEG_INF) and not (POS_INF < s) and s != POS_INF


def random_surd(rng, ds=(2, 3, 5, 8, 12, 18, 50)):
    def q():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return Surd(q(), q() or 1, rng.choice(ds))


def near_surds(rng, s):
    """A rational and two surds, one of s's d and one of another, within
    about 10^-12 of s."""
    with mpmath.workdps(60):
        v = to_mpf(s, 200)
        d = rng.choice([d for d in (2, 3, 7, 11) if d != s.d])
        b = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        other = Surd(mpmath_fraction(v - to_mpf(b, 200) * mpmath.sqrt(d)), b, d)
        pq = mpmath_fraction(mpmath.sqrt(s.d), 10**12)  # p/q near sqrt(d): (a - p) + (b + q) sqrt(d) is near s
        same = Surd(s.a - pq.numerator, s.b + pq.denominator, s.d)
        return [mpmath_fraction(v), other, same]


def mpmath_fraction(v, den=10**6):
    return Fraction(mpmath.nstr(v, 50, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)).limit_denominator(den)


def test_surd_order_and_equality_match_sympy():
    # seeded surds of equal and unequal d, against each other, rationals,
    # near-equal neighbours and the infinity tags; sympy's a + b sqrt(d) decides
    rng = random.Random(41)
    pairs = []
    for _ in range(120):
        s = random_surd(rng)
        pairs += [(s, random_surd(rng)), (s, random_surd(rng, (s.d,))), (s, Fraction(rng.randint(-40, 40), 7))]
        pairs += [(s, t) for t in near_surds(rng, s)]
        pairs.append((s, Surd(s.a, s.b / 2, 4 * s.d)))  # the same number, another d
    equal = near = 0
    for s, t in pairs:
        x, y = surd_to_sympy(s), surd_to_sympy(t)
        lt, eq, gt = bool(x < y), x == y, bool(y < x)
        assert (s < t, s == t, s > t) == (t > s, t == s, t < s) == (lt, eq, gt), (s, t)
        assert (s <= t, s >= t) == (lt or eq, gt or eq), (s, t)
        if s == t:
            assert hash(s) == hash(t)
        equal += s == t
        near += isinstance(t, Surd) and s != t and abs(to_mpf(s) - to_mpf(t)) < 1e-9
        for inf in (NEG_INF, POS_INF):
            assert (s < inf) == (inf.sign > 0) and (inf < s) == (inf.sign < 0) and s != inf
    assert equal >= 120 and near >= 200


def test_surd_is_never_a_rational_and_not_an_mpf():
    s = Surd(Fraction(1, 2), 1, 8)
    assert s != Fraction(1, 2) and Fraction(1, 2) != s and s != 0 and s != "x"
    assert not hasattr(s, "_mpf_")
    assert {s, Surd(Fraction(1, 2), 2, 2)} == {s}  # sqrt 8 = 2 sqrt 2
    with pytest.raises(TypeError):
        mpmath.mpf(1) + s


def test_surd_to_mpf_keeps_digits_through_cancellation():
    # 10^40 - sqrt(10^80 + 1) = -1 / (10^40 + sqrt(10^80 + 1)), about -5e-41
    s = Surd(10**40, -1, 10**80 + 1)
    with mpmath.workprec(400):
        want = -1 / (10**40 + mpmath.sqrt(10**80 + 1))
        assert abs(to_mpf(s, 256) / want - 1) < mpmath.mpf(2) ** -250
        want = mpmath.mpf(1) / 3 - mpmath.mpf(2) / 7 * mpmath.sqrt(5)
    assert mpmath.nstr(to_mpf(Surd(Fraction(1, 3), Fraction(-2, 7), 5), 184), 30) == mpmath.nstr(want, 30)


def test_surds_print_exactly():
    # 1 +- sqrt(2) 10^-80 printed both as "1.0" when a surd printed as a decimal
    assert format_scalar(Surd(Fraction(1, 3), Fraction(-2, 7), 5), 30) == "1/3 - 2/7*sqrt(5)"
    assert format_scalar(Surd(0, Fraction(-1, 2), 8)) == "-1/2*sqrt(8)"
    assert format_scalar(Surd(0, 3, 2)) == "3*sqrt(2)"
    near = [format_scalar(Surd(1, sign * Fraction(1, 10**80), 2)) for sign in (1, -1)]
    assert near == [f"1 + 1/{10**80}*sqrt(2)", f"1 - 1/{10**80}*sqrt(2)"]


def test_format_poly():
    assert format_poly(P([-2, 0, 4])) == "4x^2 - 2"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(P(["-1/2", 1])) == "x - 1/2"
