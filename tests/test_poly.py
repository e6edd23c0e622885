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
    _quo,
    ext_lt,
    format_poly,
    squarefree_decomposition,
)
from sympy_oracle import gcd, sqf_list

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
    assert ext_lt(NEG_INF, POS_INF)
    assert -POS_INF == NEG_INF
    assert not (POS_INF < POS_INF)


def test_format_poly():
    assert format_poly(P([-2, 0, 4])) == "4x^2 - 2"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(P(["-1/2", 1])) == "x - 1/2"
