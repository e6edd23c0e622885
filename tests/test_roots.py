import hashlib
import random
from fractions import Fraction
from functools import partial
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

import ddepoly.roots as roots
from ddepoly.poly import NEG_INF, POS_INF, Poly, Surd, as_exact
from ddepoly.roots import (
    InternalError,
    Interval,
    _Isolator,
    _refine,
    _remainders,
    interlaces,
    is_real_simple,
    isolate_roots,
    locate_real_roots,
    sturm_count,
)
from sympy_oracle import X, gcd, surd_to_sympy, to_sympy

P = Poly.rational
WIDTH = Fraction(1, 10**6)


def poly_from_roots(roots):
    p = Poly.one()
    for r in roots:
        p = p * P([-Fraction(r), 1])
    return p


def test_sturm_sqrt2():
    assert sturm_count(P([-2, 0, 1]), Interval(Fraction(0), Fraction(2))) == 1


def test_sturm_no_real_roots():
    assert sturm_count(P([1, 0, 1]), Interval(NEG_INF, POS_INF)) == 0


def test_sturm_planted_eight():
    p = poly_from_roots(range(1, 9))
    assert sturm_count(p, Interval(NEG_INF, POS_INF)) == 8


def test_sturm_endpoint_openness():
    p = poly_from_roots([0, 1, 2])
    # (0, 2] holds 1 and 2; [0, 2) holds 0 and 1
    assert sturm_count(p, Interval(Fraction(0), Fraction(2), True, False)) == 2
    assert sturm_count(p, Interval(Fraction(0), Fraction(2), False, True)) == 2
    assert sturm_count(p, Interval(Fraction(0), Fraction(2), False, False)) == 3
    assert sturm_count(p, Interval(Fraction(0), Fraction(2), True, True)) == 1


def test_sturm_rejects_repeated_roots():
    with pytest.raises(ValueError):
        sturm_count(P([1, -2, 1]), Interval(NEG_INF, POS_INF))


def test_isolate_x2_minus_x():
    rs = isolate_roots(P([0, -1, 1]), WIDTH)
    assert rs.count == 2 and rs.squarefree
    assert [r.multiplicity for r in rs.roots] == [1, 1]
    mids = [float(m) for m in rs.midpoints()]
    assert abs(mids[0]) < 1e-6 and abs(mids[1] - 1) < 1e-6


def test_isolate_scaled_cubic():
    # 8x^3 - 12x factors as 4x(2x^2 - 3): roots 0 and +-sqrt(3/2)
    rs = isolate_roots(P([0, -12, 0, 8]), Fraction(1, 10**12))
    assert rs.count == 3
    mids = rs.midpoints(prec=80)
    assert abs(mids[1]) < 1e-12
    for m in (mids[0], mids[2]):
        assert abs(m * m - 1.5) < 1e-10


def test_isolate_double_root():
    rs = isolate_roots(P([1, -2, 1]), WIDTH)
    assert rs.count == 1 and not rs.squarefree
    assert rs.roots[0].multiplicity == 2
    assert rs.roots[0].interval.is_point and rs.roots[0].interval.lo == 1


def test_mirrored_roots_keep_their_own_multiplicity():
    # the squarefree part x^2 - 1 of (x - 1)^2 (x + 1) has parity, its Yun
    # factors do not: each mirrored root reads its own multiplicity
    for planted, want in (([1, 1, -1], [(-1, 1), (1, 2)]),
                          ([1, 1, -1, 2, -2, -2, -2], [(-2, 3), (-1, 1), (1, 2), (2, 1)])):
        rs = isolate_roots(poly_from_roots(planted), WIDTH)
        assert [(r.interval.lo, r.multiplicity) for r in rs.roots] == want


def interval(node):
    """The Interval of a node (lo, hi, den, f_lo, f_hi) of `locate_real_roots`."""
    lo, hi = Fraction(node[0], node[2]), Fraction(node[1], node[2])
    return Interval(lo, hi, lo != hi, False)


def left_of(a, b):
    """Every point of interval a lies below every point of b."""
    return a.hi < b.lo or (a.hi == b.lo and (a.hi_open or b.lo_open))


def test_isolate_constant_has_no_roots():
    rs = isolate_roots(P([3]), WIDTH)
    assert rs.roots == () and rs.count == 0 and rs.squarefree


def test_isolate_close_double_and_simple_roots():
    # (x - 1)^2 (x - 1 - 10^-12): a double root and a simple one 10^-12 apart
    eps = Fraction(1, 10**12)
    rs = isolate_roots(P([-1, 1]) * P([-1, 1]) * P([-1 - eps, 1]), WIDTH)
    assert rs.count == 2 and not rs.squarefree
    (a, ma), (b, mb) = ((r.interval, r.multiplicity) for r in rs.roots)
    assert (ma, mb) == (2, 1)
    assert a.contains(Fraction(1)) and b.contains(1 + eps)
    assert left_of(a, b)


def test_isolate_bad_width():
    with pytest.raises(ValueError):
        isolate_roots(P([0, 1]), Fraction(0))
    with pytest.raises(ValueError):
        isolate_roots(Poly.zero(), WIDTH)


def test_real_simple_examples():
    assert is_real_simple(P([-1, 0, 1])).ok
    chk = is_real_simple(P([1, 0, 1]))
    assert not chk.ok and "0 of 2" in chk.witness
    chk = is_real_simple(P([1, -2, 1]))
    assert not chk.ok and "repeated" in chk.witness


def test_interlaces_examples():
    assert interlaces(P([0, 2]), P([-1, 0, 4])).verdict == "strict"
    assert interlaces(P([0, 1]), P([-1, 0, 1])).verdict == "strict"
    rep = interlaces(P([-2, 1]), P([-1, 0, 1]))
    assert rep.verdict == "fail"
    assert rep.witness == "Cauchy index of p/q is 0, interlacing needs +-2"


def test_interlaces_weak_shared_endpoint():
    # consecutive set-partition generating polynomials share the root at 0
    b2 = P([0, 1, 1])
    b3 = P([0, 1, 3, 1])
    rep = interlaces(b2, b3)
    assert rep.verdict == "weak-shared-endpoint"


def test_interlaces_shared_interior_fails():
    p = poly_from_roots([0, 2])
    q = poly_from_roots([-1, 0, 3])  # shares 0, which is interior in q
    rep = interlaces(p, q)
    assert rep.verdict == "fail" and "interior" in rep.witness


def test_interlaces_degree_mismatch():
    with pytest.raises(ValueError):
        interlaces(P([0, 1]), P([0, 0, 0, 1]))


def test_interlaces_rejects_complex_roots():
    with pytest.raises(ValueError):
        interlaces(P([1, 0, 1]), P([0, 1, 0, 1]))


def planted_verdict(proots, qroots):
    """Interlacing verdict read off the merged sorted planted roots: equal
    neighbours are allowed only in the first and the last position."""
    ps, qs = sorted(proots), sorted(qroots)
    merged = [qs[0]]
    for a, b in zip(ps, qs[1:]):
        merged += [a, b]
    steps = list(zip(merged, merged[1:]))
    if any(a > b for a, b in steps) or any(a == b for a, b in steps[1:-1]):
        return "fail"
    shared = steps[0][0] == steps[0][1] or steps[-1][0] == steps[-1][1]
    return "weak-shared-endpoint" if shared else "strict"


# roots of q that p takes over: none, the low end, the high end, both ends,
# an interior one, two at the low end, two low and the high end
SHARED = {"none": (), "low": (0,), "high": (-1,), "both": (0, -1), "interior": (1,),
          "two-low": (0, 1), "three": (0, 1, -1)}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-12, max_value=12), min_size=2, max_size=6, unique=True),
    st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(-11, 3)]),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(sorted(SHARED)),
)
def test_interlace_scaling_invariance(qroots_ints, scale, shift, share):
    qroots = sorted(Fraction(v) for v in qroots_ints)
    q = poly_from_roots(qroots)
    # p roots sit near (not on) the gaps of q, and some move onto a root of
    # q; the verdict must match the planted roots and must not change under
    # nonzero constant scaling of either side
    proots = [(a + b) / 2 + Fraction(shift, 3) for a, b in zip(qroots, qroots[1:])]
    for j in SHARED[share]:
        proots[min(j, len(proots) - 1)] = qroots[j]
    p = poly_from_roots(proots)
    base = interlaces(p, q).verdict
    assert base == planted_verdict(proots, qroots)
    assert interlaces(p.scale(scale), q).verdict == base
    assert interlaces(p, q.scale(scale)).verdict == base


def test_gcd_constant_iff_all_multiplicities_one():
    rng = random.Random(7)
    for _ in range(25):
        roots = rng.sample(range(-8, 9), rng.randint(1, 4))
        mults = [rng.randint(1, 3) for _ in roots]
        p = Poly.one()
        for r, m in zip(roots, mults):
            p = p * P([-r, 1]) ** m
        rs = isolate_roots(p, WIDTH)
        gcd_const = gcd(p, p.derivative()).degree == 0
        assert gcd_const == all(ri.multiplicity == 1 for ri in rs.roots)
        assert sorted(ri.multiplicity for ri in rs.roots) == sorted(mults)


def test_float_rational_agreement():
    roots = [Fraction(-7, 2), Fraction(-1, 3), Fraction(0), Fraction(2), Fraction(19, 4)]
    p = poly_from_roots(roots)
    width = Fraction(1, 10**9)
    exact = isolate_roots(p, width)
    approx = isolate_roots(Poly.floating(p.coeffs, 128), mpmath.mpf(1e-9))
    assert exact.count == approx.count == 5
    for em, am in zip(exact.midpoints(128), approx.midpoints(128)):
        assert abs(float(em) - float(am)) <= 2e-9


def test_float_isolation_newton_polish():
    p = Poly.floating([0, -12, 0, 8], prec=192)
    rs = isolate_roots(p, mpmath.mpf(10) ** -40)
    mids = rs.midpoints(192)
    with mpmath.workprec(192):
        target = mpmath.sqrt(mpmath.mpf(3) / 2)
        assert abs(mids[2] - target) < mpmath.mpf(10) ** -40


def test_float_isolation_reports_ill_conditioning():
    # (x-1)^2 is held exactly, so its double root is certified as the exact
    # point 1 with multiplicity 2
    p = Poly.floating([1, -2, 1], prec=192)
    rs = isolate_roots(p, mpmath.mpf(1e-20))
    assert rs.count == 1 and not rs.squarefree
    (r,) = rs.roots
    assert r.multiplicity == 2 and r.interval == Interval(mpmath.mpf(1), mpmath.mpf(1), False, False)


def close_root_quintic(prec=256):
    """(x-1)(x-1-1e-14)(x-2)(x+3)x: five real roots, two of them 1e-14 apart."""
    with mpmath.workprec(prec):
        p = Poly.floating([1], prec)
        for r in (1, 1 + mpmath.mpf("1e-14"), 2, -3, 0):
            p = p * Poly.floating([-r, 1], prec)
    return p


def held(p):
    """The exact rational polynomial a float polynomial holds."""
    return P([as_exact(c) for c in p.coeffs])


@pytest.mark.parametrize("width", ["1e-9", "1e-30"])
def test_float_isolation_refuses_to_merge_close_roots(width):
    # the two roots 1e-14 apart come back as two intervals, each holding
    # one root found by mpmath.polyroots; each is an exact root of the held
    # polynomial or brackets a sign change of it at exact mpf ends
    p = close_root_quintic()
    rs = isolate_roots(p, mpmath.mpf(width))
    assert rs.count == 5 and rs.squarefree
    with mpmath.workdps(60):
        ref = sorted(mpmath.re(z) for z in mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=400))
        slack = mpmath.mpf(10) ** -40
        for r, z in zip(rs.roots, ref):
            iv = r.interval
            assert isinstance(iv.lo, mpmath.mpf) and isinstance(iv.hi, mpmath.mpf)
            assert iv.lo - slack <= z <= iv.hi + slack and iv.hi - iv.lo <= mpmath.mpf(width)
    exact = held(p)
    for r in rs.roots:
        lo, hi = (exact(as_exact(x)) for x in (r.interval.lo, r.interval.hi))
        assert lo == 0 if r.interval.is_point else lo * hi < 0


def test_float_isolation_keeps_the_root_beside_a_near_double_one():
    # ((x-1)^2 + 1e-16)(x-3): a complex pair 1e-8 off the real axis and
    # exactly one real root
    with mpmath.workprec(256):
        p = Poly.floating([1 + mpmath.mpf("1e-16"), -2, 1], 256) * Poly.floating([-3, 1], 256)
    rs = isolate_roots(p, mpmath.mpf("1e-30"))
    assert rs.count == 1 and rs.squarefree
    assert rs.roots[0].interval.contains(mpmath.mpf(3))


def test_float_linear_root_is_widened_outward():
    # 3x - 1 holds the exact root 1/3, which no mpf equals
    rs = isolate_roots(Poly.floating([-1, 3], prec=128), mpmath.mpf(1e-9))
    iv = rs.roots[0].interval
    assert isinstance(iv.lo, mpmath.mpf) and isinstance(iv.hi, mpmath.mpf)
    assert not iv.lo_open and not iv.hi_open
    third = Fraction(1, 3)
    assert as_exact(iv.lo) < third < as_exact(iv.hi)
    assert as_exact(iv.hi) - as_exact(iv.lo) < Fraction(1, 2**190)


def test_dyadic_ends_are_the_mpf_of_the_outward_rounded_route():
    # a tree-node end num / 2^k is built without a division; its mpf is the
    # one the rounded route gives at a precision that holds it exactly
    from mpmath.libmp import from_rational

    rng = random.Random(34)
    p = Poly.floating([0, 0, 1], prec=128)
    ends = [Fraction(0)]
    for e in (0, 1, -1, 53, -53, 600, -600):
        ends += [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 700)) * Fraction(2) ** e for _ in range(8)]
    assert any(x < 0 for x in ends) and any(x > 0 for x in ends)
    for lo in ends:
        hi = lo + Fraction(1, 1 << 600)
        got = roots._ends_of_kind(p, Interval(lo, hi))
        for end, x, rnd in ((got.lo, lo, "f"), (got.hi, hi, "c")):
            assert isinstance(end, mpmath.mpf) and as_exact(end) == x
            want = from_rational(x.numerator, x.denominator, max(p.prec + 64, x.numerator.bit_length()), rnd)
            assert end._mpf_ == want


def test_degree_one_float_member_rounds_its_root_outward():
    # 3x - 1: the root 1/3 is no dyadic, so its ends are rounded down and
    # up at prec + 64 bits, one ulp 2^-(prec + 65) apart (1/4 < 1/3 < 1/2)
    p = Poly.floating([-1, 3], prec=128)
    third = Fraction(1, 3)
    iv = roots._ends_of_kind(p, Interval(third, third, False, False))
    assert as_exact(iv.lo) < third < as_exact(iv.hi) and not iv.lo_open and not iv.hi_open
    assert as_exact(iv.hi) - as_exact(iv.lo) == Fraction(1, 2 ** (p.prec + 65))


def test_float_interlacing_is_exact_on_the_held_dyadics():
    # q = x(x-1)(x-2), p = (x-1/2)(x-r): a 1e-12 gap from the root 2 of q
    # decides the verdict; nothing is treated as shared by a tolerance
    def held(roots):
        with mpmath.workprec(256):
            f = Poly.floating([1], 256)
            for r in roots:
                f = f * Poly.floating([-r, 1], 256)
        return f

    q = held([0, 1, 2])
    with mpmath.workprec(256):
        gap = mpmath.mpf("1e-12")
        tiny = mpmath.mpf("1e-30")  # lost if the coefficients were rounded to doubles
        cases = ((2 + gap, "fail"), (2 - gap, "strict"), (mpmath.mpf(2), "weak-shared-endpoint"),
                 (2 + tiny, "fail"), (2 - tiny, "strict"))
    for r, verdict in cases:
        rep = interlaces(held([mpmath.mpf(1) / 2, r]), q)
        assert rep.verdict == verdict and rep.numeric


# ---------------------------------------------------------------- exact kernel oracles

small_polys = st.lists(st.integers(-12, 12), min_size=1, max_size=7).map(
    lambda cs: P([Fraction(c, 3) for c in cs]))


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_remainders_are_primitive_signed_remainders(f, g, h):
    # a common factor h makes the chain end in a nonconstant gcd
    f, g = f * h, g * h
    if f.is_zero:
        return
    seq = [f, g]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        r = -seq[-2].divrem(seq[-1])[1]
        if r.is_zero:
            break
        seq.append(r)
    want = [s.primitive_int_coeffs() for s in seq if not s.is_zero]
    assert _remainders(f, g) == want


def variation_refine(p, iv, width):
    """Sturm bisection counting sign variations: the refinement oracle."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        chain.append(-chain[-2].divrem(chain[-1])[1])

    def variations(x):
        signs = [s for s in ((c(x) > 0) - (c(x) < 0) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    if iv.is_point:
        return iv
    a, b = iv.lo, iv.hi
    while b - a > width:
        m = (a + b) / 2
        if p(m) == 0:
            return Interval(m, m, False, False)
        if variations(a) - variations(m) == 1:
            b = m
        else:
            a = m
    return Interval(a, b)


PLANTED_RATIONALS = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=8), max_size=4, unique=True)
PLANTED_SURDS = st.lists(st.tuples(st.integers(-6, 6), st.integers(2, 30)), max_size=2, unique=True)
PLANTED_COMPLEX = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 9)), max_size=2)


def planted(rational, surds, complexes):
    """The product of the planted factors, or None unless it is squarefree
    of degree >= 1."""
    p = poly_from_roots(rational)
    for a, d in surds:  # (x - a)^2 - d, roots a +- sqrt(d)
        p = p * P([a * a - d, -2 * a, 1])
    for b, c in complexes:  # (x + b)^2 + c, no real roots
        p = p * P([b * b + c, 2 * b, 1])
    if p.degree < 1 or gcd(p, p.derivative()).degree > 0:
        return None
    return p


def test_signs_and_counts_at_surds_match_sympy():
    # seeded integer polynomials at a + b sqrt(d), every third one with that
    # surd as a root; sympy's exact value of p(a + b sqrt(d)) decides the sign
    rng = random.Random(17)
    zeros = 0
    for i in range(90):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
        s = Surd(a, b, rng.choice([2, 3, 5, 12]))
        p = P([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))] + [rng.choice([-3, -1, 1, 2])])
        planted = i % 3 == 0
        if planted:
            p = p * P([a * a - b * b * s.d, -2 * a, 1])
        iso = _Isolator(p)
        x = surd_to_sympy(s)
        want = sympy.sign(sympy.expand(to_sympy(p).as_expr().subs(X, x)))
        assert iso.sign(s) == want, (p, s)
        zeros += want == 0
        if iso.gcd_degree == 0 and want == 0:
            assert sturm_count(p, Interval(s, s, False, False)) == 1
        elif iso.gcd_degree == 0:
            real = sympy.real_roots(to_sympy(p))
            above = sum(1 for r in real if bool(r > x))
            assert sturm_count(p, Interval(s, POS_INF)) == above, (p, s)
            assert sturm_count(p, Interval(NEG_INF, s, hi_open=True)) == len(real) - above, (p, s)
    assert zeros >= 30


def surd_side(a, s, d):
    """x -> sign(x - (a + s sqrt(d))), exactly, for s = +-1 and d > 0."""
    def side(x):
        y = x - a
        if s > 0:
            return -1 if y <= 0 else (y * y > d) - (y * y < d)
        return 1 if y >= 0 else (d > y * y) - (d < y * y)
    return side


def inside(iv, side):
    """The root where `side` changes sign lies in iv."""
    lo, hi = side(iv.lo), side(iv.hi)
    return (lo < 0 or (lo == 0 and not iv.lo_open)) and (hi > 0 or (hi == 0 and not iv.hi_open))


@settings(max_examples=60, deadline=None)
@given(PLANTED_RATIONALS, PLANTED_SURDS, PLANTED_COMPLEX)
def test_locate_real_roots_isolates_each_planted_root_once(rational, surds, complexes):
    p = planted(rational, surds, complexes)
    if p is None:
        return
    iso = _Isolator(p)
    sides = [lambda x, r=r: (x > r) - (x < r) for r in rational]
    sides += [surd_side(a, s, d) for a, d in surds for s in (1, -1)]
    nodes = locate_real_roots(p, iso)
    for lo, hi, den, f_lo, f_hi in nodes:  # the values the walk hands on are den^n p at the ends
        assert all(v is None or v == roots._value_int_poly(iso.vector, x, den) for x, v in ((lo, f_lo), (hi, f_hi)))
    ivs = [interval(node) for node in nodes]
    for side in sides:
        assert side(-iso.bound) < 0 < side(iso.bound)
        assert sum(inside(iv, side) for iv in ivs) == 1
    assert len(ivs) == len(sides)
    for iv in ivs:
        if iv.is_point:
            assert p(iv.lo) == 0
        else:
            assert iv.lo_open and not iv.hi_open and p(iv.lo) != 0 and p(iv.hi) != 0
    assert all(left_of(a, b) for a, b in zip(ivs, ivs[1:]))


@settings(max_examples=60, deadline=None)
@given(
    PLANTED_RATIONALS,
    PLANTED_SURDS,
    PLANTED_COMPLEX,
    st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**9), Fraction(1, 10**20)]),
)
def test_sign_refinement_matches_variation_bisection(rational, surds, complexes, width):
    p = planted(rational, surds, complexes)
    if p is None:
        return
    iso = _Isolator(p)
    for node in locate_real_roots(p, iso):
        assert _refine(iso.chain[0], node, width) == variation_refine(p, interval(node), width)


def bisection_refine(iso, iv, width):
    """Plain bisection on the sign of f, the refinement `_refine` must
    reproduce node for node."""
    if iv.is_point:
        return iv
    f, a, b = iso.chain[0], iv.lo, iv.hi
    den = lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * den // a.denominator, b.numerator * den // b.denominator
    s_lo = roots._sign(roots._value_int_poly(f, lo, den))
    while (hi - lo) * width.denominator > width.numerator * den:
        s = roots._sign(roots._value_int_poly(f, lo + hi, 2 * den))
        if s == 0:
            m = Fraction(lo + hi, 2 * den)
            return Interval(m, m, False, False)
        lo, hi, den = (lo + hi, 2 * hi, 2 * den) if s == s_lo else (2 * lo, lo + hi, 2 * den)
    return Interval(Fraction(lo, den), Fraction(hi, den))


def seeded_product(rng):
    """A scaled product of distinct rational, surd-pair and complex-pair
    factors with multiplicities 1-3: (product, its monic squarefree part,
    [(side of a planted real root, its multiplicity)])."""
    rational = {Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))}
    surds = {(rng.randint(-6, 6), rng.choice([2, 3, 5, 7, 13, 60])) for _ in range(rng.randint(0, 2))}
    complexes = {(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(rng.randint(0, 2))}
    factors = [(P([-r, 1]), [lambda x, r=r: (x > r) - (x < r)]) for r in rational]
    factors += [(P([a * a - d, -2 * a, 1]), [surd_side(a, 1, d), surd_side(a, -1, d)]) for a, d in surds]
    factors += [(P([b * b + c, 2 * b, 1]), []) for b, c in complexes]
    p, sqf, planted = P([rng.choice([1, -2, Fraction(7, 3)])]), Poly.one(), []
    for f, sides in factors:
        m = rng.randint(1, 3)
        p, sqf = p * f**m, sqf * f
        planted += [(side, m) for side in sides]
    return p, sqf, planted


@pytest.mark.parametrize("width", [Fraction(1, 10**9), Fraction(1, 10**30), Fraction(1, 2**256)])
def test_isolation_matches_plain_bisection(width):
    rng = random.Random(2006)
    for _ in range(30):
        p, sqf, planted = seeded_product(rng)
        iso = _Isolator(sqf)
        want = []
        for iv in map(interval, locate_real_roots(sqf, iso)):
            (m,) = [m for side, m in planted if inside(iv, side)]
            want.append((bisection_refine(iso, iv, width), m))
        assert [(r.interval, r.multiplicity) for r in isolate_roots(p, width).roots] == want


def test_quadratic_refinement_needs_under_half_the_evaluations(monkeypatch):
    calls = []
    value = roots._value_int_poly
    monkeypatch.setattr(roots, "_value_int_poly", lambda f, num, den, *parity: calls.append(1) or value(f, num, den, *parity))
    rng, width, counts = random.Random(1971), Fraction(1, 2**256), [0, 0]
    for _ in range(20):
        _, sqf, _ = seeded_product(rng)
        iso = _Isolator(sqf)
        for node in locate_real_roots(sqf, iso):
            # both start from the node alone, without the walk's values at its ends
            for i, refine, iv in ((0, partial(_refine, iso.chain[0]), (*node[:3], None, None)),
                                  (1, partial(bisection_refine, iso), interval(node))):
                calls.clear()
                refine(iv, width)
                counts[i] += len(calls)
    assert 2 * counts[0] < counts[1]


def test_refine_returns_a_rational_root_hit_as_a_point():
    f = _Isolator(P([-3, 4]) * P([-2, 0, 1])).chain[0]  # roots 3/4, +-sqrt(2)
    hit = Interval(Fraction(3, 4), Fraction(3, 4), False, False)
    assert _refine(f, (0, 1, 1, None, None), Fraction(1, 100)) == hit
    # a width of exactly the target stops the bisection
    assert _refine(f, (1, 2, 1, None, None), Fraction(1, 4)) == Interval(Fraction(5, 4), Fraction(3, 2))
    with pytest.raises(InternalError):
        _refine(f, (3, 4, 4, None, None), Fraction(1, 100))


def test_walk_stops_at_the_root_separation_when_counts_never_settle():
    # an isolator with V(x) = 2 for every x < M and V(M) = 0 keeps the node
    # next to M at two roots, so the walk would bisect toward M forever; no
    # node narrower than x^2 - 2's root separation can hold two roots, so it
    # raises there.  The stub gives up after 10^4 calls, so that without the
    # bound this test fails instead of hanging
    class Unsettled:
        half, bound = False, Fraction(4)

        def __init__(self, f):
            self.vector, self.calls = f.primitive_int_coeffs(), 0

        def top(self):
            return 2, 0

        def at(self, num, den):
            self.calls += 1
            assert self.calls < 10**4, "the walk did not stop"
            return 2, None

    f = P([-2, 0, 1])
    iso = Unsettled(f)
    with pytest.raises(InternalError, match="do not settle"):
        locate_real_roots(f, iso)
    assert 0 < iso.calls < 40


def test_exact_isolation_makes_no_divrem_or_gcd(monkeypatch):
    calls = []

    def spy(name, orig):
        return lambda self, other: calls.append(name) or orig(self, other)

    for name in ("divrem", "gcd"):
        monkeypatch.setattr(Poly, name, spy(name, getattr(Poly, name)))
    squarefree = P([3, -1]) * P([-2, 0, 1]) * P([1, 0, 1])
    repeated = P(["1/2"]) * P([-3, 4]) ** 3 * P([-2, 0, 1]) ** 2 * P([1, 0, 1]) * P([5, 1])
    assert [r.multiplicity for r in isolate_roots(squarefree, WIDTH).roots] == [1, 1, 1]
    assert [r.multiplicity for r in isolate_roots(repeated, WIDTH).roots] == [1, 2, 3, 2]
    assert not calls


def test_squarefree_input_builds_one_chain_and_no_yun(monkeypatch):
    import ddepoly.poly as poly
    import ddepoly.roots as roots

    chains, prs, yun = [], [], []
    orig_chain, orig_prs, orig_yun = roots._remainders, poly._prs, roots.squarefree_decomposition
    monkeypatch.setattr(roots, "_remainders", lambda f, g: chains.append(1) or orig_chain(f, g))
    monkeypatch.setattr(poly, "_prs", lambda a, b: prs.append(1) or orig_prs(a, b))
    monkeypatch.setattr(roots, "squarefree_decomposition", lambda *a: yun.append(1) or orig_yun(*a))
    rs = isolate_roots(poly_from_roots([Fraction(-7, 3), 0, 2, 5]) * P([-3, 0, 1]), WIDTH)
    assert rs.count == 6 and rs.squarefree
    assert (len(chains), len(prs), len(yun)) == (1, 1, 0)
    rs = isolate_roots(P([1, -2, 1]) * P([-3, 0, 1]), WIDTH)
    assert not rs.squarefree and [r.multiplicity for r in rs.roots] == [1, 2, 1]
    # p's chain, then its squarefree part's; Yun starts from the gcd that
    # ends p's chain and builds one chain per factor, not p's chain again
    assert (len(chains), len(prs), len(yun)) == (3, 5, 1)


def test_real_simple_zeros_checks_and_isolates_on_one_chain(monkeypatch):
    # the check is is_real_simple's and the zeros isolate_roots', or None
    # when the check fails; a real-simple p costs one chain, a float p is
    # taken as the rational polynomial it holds.  p's own chain comes from
    # _remainders, that of the even part of a p with parity from _prs
    import ddepoly.roots as roots

    cases = [poly_from_roots([Fraction(-7, 3), 0, 2]) * P([-3, 0, 1]), P([1, 0, 1]) * P([0, 1]),
             P([1, -2, 1]) * P([-3, 4]), Poly.floating([-2, 0, 1], 128)]
    want = [(is_real_simple(p), isolate_roots(p, WIDTH)) for p in cases]
    chains = []
    orig, orig_prs = roots._remainders, roots._prs
    monkeypatch.setattr(roots, "_remainders", lambda f, g: chains.append(1) or orig(f, g))
    monkeypatch.setattr(roots, "_prs", lambda a, b: chains.append(1) or orig_prs(a, b))
    got = [roots.real_simple_zeros(p, WIDTH) for p in cases]
    assert got == [(chk, rs if chk else None) for chk, rs in want]
    assert [chk.ok for chk, _ in got] == [True, False, False, True]
    assert len(chains) == 4


def test_squarefree_input_with_parity_builds_only_its_even_parts_chain(monkeypatch):
    # a squarefree p = x^s r(x^2) with parity builds one chain, r's, of at
    # most deg p // 2 + 1 entries, and no chain of p; p with a repeated
    # factor builds p's own chain and runs Yun from its gcd, after r's chain
    # when s <= 1, and its squarefree part is counted on its even part's
    import ddepoly.poly as poly

    even, full, yun = [], [], []
    orig_prs, orig_yun = roots._prs, roots.squarefree_decomposition
    monkeypatch.setattr(roots, "_prs", lambda a, b: even.append(orig_prs(a, b)) or even[-1])
    monkeypatch.setattr(poly, "_prs", lambda a, b, f=poly._prs: full.append(1) or f(a, b))
    monkeypatch.setattr(roots, "squarefree_decomposition", lambda *a: yun.append(1) or orig_yun(*a))
    p = poly_from_roots([-2, -1, 0, 1, 2]) * P([-3, 0, 1]) * P([1, 0, 1])  # s = 1, deg r = 4
    rs = isolate_roots(p, WIDTH)
    assert rs.count == 7 and rs.squarefree
    assert (len(even), len(full), len(yun)) == (1, 0, 0) and len(even[0]) <= p.degree // 2 + 1
    assert len(even[0][0]) == 5
    for p, chains in ((P([-3, 0, 1]) ** 2 * P([0, 1]), 2), (P([0, 0, 1]) * P([-3, 0, 1]), 1)):
        del even[:], full[:], yun[:]
        rs = isolate_roots(p, WIDTH)
        assert not rs.squarefree and rs.count == 3
        # p's chain and Yun's in poly, r's of p when s <= 1 and the squarefree part's
        assert len(even) == chains and len(full) > 1 and len(yun) == 1
        assert len(even[-1][0]) == 2  # x (x^2 - 3): r = y - 3


def test_real_simple_witnesses_on_parity_inputs_are_the_whole_chains():
    # is_real_simple and real_simple_zeros on a p with parity give p's own
    # chain's verdict and witness, word for word: the real count read off
    # the even part's chain, the repeated factor's degree off p's chain
    from ddepoly.freud import freud_recurrence_coeffs, freud_sequence

    rng = random.Random(2025)
    cases = [p for p, _ in parity_cases(rng)] + [P([1, 0, 1]), P([4, 0, -5, 0, 1]), P([1, 0, 1]) * P([0, 1])]
    cases += list(freud_sequence(freud_recurrence_coeffs(Fraction(1), 8, 256), 8).polys[2:])
    witnesses = set()
    for p in cases:
        want = roots._real_simple(p, _Isolator(roots._exact_image(p)))
        assert is_real_simple(p) == want == roots.real_simple_zeros(p, WIDTH)[0]
        witnesses.add(want.witness.split()[0] if want.witness else None)
    assert witnesses == {None, "only", "repeated"}


def certified_case(rng):
    """A squarefree q with rational roots (some dyadic, some 10^-12 apart),
    surd pairs and at times a complex pair, and a p of one degree less:
    q', or q without one of its rational roots (every other root shared)."""
    rational = {Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 7])) for _ in range(rng.randint(1, 4))}
    if rng.random() < 0.4:
        rational.add(min(rational) - Fraction(1, 10**12))
    surds = {(rng.randint(-4, 4), rng.choice([2, 3, 5])) for _ in range(rng.randint(0, 1))}
    complexes = [(rng.randint(-3, 3), rng.randint(1, 4))] if rng.random() < 0.2 else []
    q = planted(sorted(rational), sorted(surds), complexes)
    if q is None:
        return None
    q = q.scale(rng.choice([1, -3, Fraction(2, 5)]))
    derivative = rng.random() < 0.6
    p = q.derivative() if derivative else q.divrem(P([-min(rational), 1]))[0]
    return p, q, not complexes, derivative


@pytest.mark.parametrize("width", [Fraction(1, 10**9), Fraction(1, 16)])
def test_certify_next_gives_isolate_roots_zeros_and_the_interlacing_verdict(width):
    # the certified zeros are isolate_roots' own, byte for byte; where the
    # places settle a verdict it is interlaces'.  A complex pair or a p whose
    # intervals part no pair of q's roots declines
    from ddepoly.verify import _interlace_from_places

    rng = random.Random(19)
    certified = settled = close = 0
    for _ in range(150):
        case = certified_case(rng)
        if case is None:
            continue
        p, q, real, derivative = case
        prev = tuple(r.interval for r in isolate_roots(p, width).roots)
        cert = roots.certify_next(p, prev, q, width)
        if cert is None:
            continue
        assert real
        certified += 1
        zeros = tuple(r.interval for r in isolate_roots(q, width).roots)
        assert cert.zeros == zeros and list(map(repr, cert.zeros)) == list(map(repr, zeros))
        close += any(not iv.is_point and iv.hi - iv.lo < width / 2 for iv in zeros)
        if derivative and real:  # Rolle: one root of q' in each gap between q's roots
            assert cert.places == tuple(range(0, 2 * q.degree, 2))
        verdict = _interlace_from_places(cert.places, p.degree)
        if verdict is not None:
            settled += 1
            assert verdict == interlaces(p, q).verdict
    assert certified > 60 and settled > 30 and close > 5


def test_certify_next_places_zeros_on_separators_and_declines_a_double_one():
    third = (Interval(Fraction(1, 3), Fraction(1, 3), False, False),)  # the root of 3x - 1, not dyadic
    q = P([-1, 3]) * P([-2, 1])
    cert = roots.certify_next(P([-1, 3]), third, q, WIDTH)
    assert cert.places == (1, 2)  # the shared 1/3, then 2 above it
    assert cert.zeros == tuple(r.interval for r in isolate_roots(q, WIDTH).roots)
    zero = (Interval(Fraction(0), Fraction(0), False, False),)
    assert roots.certify_next(P([0, 1]), zero, P([0, 0, -1, 1]), WIDTH) is None  # x^2 (x - 1): q' vanishes at 0
    assert roots.certify_next(P([0, 1]), zero, P([1, 0, 1]) * P([0, 1]), WIDTH) is None  # x (x^2 + 1): 1 root of 3


def test_certificate_counts_are_sturm_counts(monkeypatch):
    # V(a) - V(b) off the certificate's brackets is sturm_count's on q's own
    # chain, and the sign at each point is q's, with a and b over the
    # separators and the midpoints the tree walk visits.  (3x - 1)(x - 2)
    # and x (x - 1)(x + 2) vanish on a separator, 1/3 and 0, which also opens
    # a bracket, so `found` holds it twice
    built, visited = [], set()

    class Spy(roots._BracketIsolator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        def at(self, num, den):
            visited.add(Fraction(num, den))
            return super().at(num, den)

    monkeypatch.setattr(roots, "_BracketIsolator", Spy)
    third = (Interval(Fraction(1, 3), Fraction(1, 3), False, False),)
    zero = (Interval(Fraction(0), Fraction(0), False, False),)
    cases = [(P([-1, 3]), third, P([-1, 3]) * P([-2, 1])), (P([0, 1]), zero, poly_from_roots([-2, 0, 1]))]
    rng = random.Random(19)
    for _ in range(100):
        case = certified_case(rng)
        if case is not None:
            p, q = case[:2]
            cases.append((p, tuple(r.interval for r in isolate_roots(p, Fraction(1, 16)).roots), q))
    certified = twice = 0
    for p, prev, q in cases:
        built.clear()
        visited.clear()
        if roots.certify_next(p, prev, q, Fraction(1, 16)) is None:
            continue
        iso = built[-1]
        certified += 1
        twice += len(set(iso.lefts)) < len(iso.lefts)
        xs = sorted(visited | {Fraction(x, iso.den) for left, right, *_ in iso.found for x in (left, right)})
        at = {x: iso.at(x.numerator, x.denominator) for x in xs}
        for x, (v, value) in at.items():  # no value off the roots: there q's sign is lead (-1)^V
            lead = roots._sign(iso.vector[-1])
            assert (lead * (-1) ** v if value is None else roots._sign(value)) == (q(x) > 0) - (q(x) < 0)
        for a, b in [*zip(xs, xs[1:]), *(sorted(rng.sample(xs, 2)) for _ in range(10) if len(xs) > 1)]:
            assert at[a][0] - at[b][0] == sturm_count(q, Interval(a, b)), (q, a, b)
    assert certified > 40 and twice >= 2


def test_value_int_poly_is_the_homogenized_sum():
    # shift form (den a power of two, den = 1 too), product form (odd den),
    # Horner in x^2 (parity vectors): all give sum c_i num^i den^(d-i)
    rng = random.Random(21)
    for _ in range(3000):
        d = rng.randint(0, 14)
        c = [rng.randint(-10**6, 10**6) for _ in range(d + 1)]
        if rng.random() < 0.5:  # parity: every other coefficient from the top is zero
            c[d - 1::-2] = [0] * len(c[d - 1::-2])
        c[-1] = c[-1] or 1
        num = rng.choice([0, 1, -1, rng.randint(-2**70, 2**70)])
        den = rng.choice([1, 2, 2**rng.randint(1, 90), 3, 2 * rng.randint(0, 10**9) + 1, rng.randint(1, 10**12)])
        assert roots._value_int_poly(c, num, den) == sum(ci * num**i * den**(d - i) for i, ci in enumerate(c))


def tree_walk(iso):
    """The isolating intervals of the whole bisection tree over (-M, M],
    walked node by node in order, without `locate_real_roots` and without
    any mirror: a node is kept when it holds one root and neither end is a
    root, and a midpoint that is a root is kept as a point."""
    out = []

    def walk(a, b):
        n = iso.count_half_open(a, b) - (iso.sign(b) == 0)  # roots in (a, b)
        if n == 0:
            return
        if n == 1 and iso.sign(a) != 0 and iso.sign(b) != 0:
            out.append(Interval(a, b))
            return
        m = (a + b) / 2
        walk(a, m)
        if iso.sign(m) == 0:
            out.append(Interval(m, m, False, False))
        walk(m, b)

    walk(-iso.bound, iso.bound)
    return out


def parity_product(rng, repeated):
    """x^k times an even product of x^2 - r^2, x^2 - d (surds) and x^2 + c
    (complex) factors, scaled: (product, its squarefree part, [(side of a
    planted real root, its multiplicity)]).  k is 0 or 2 for an even
    product, 1 or 3 for an odd one; multiplicities above 1 when `repeated`."""
    mult = (lambda: rng.randint(1, 3)) if repeated else (lambda: 1)
    rational = {Fraction(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))}
    surds = {rng.choice([2, 3, 5, 7, 13, 60]) for _ in range(rng.randint(0, 2))}
    factors = [(P([-r * r, 0, 1]), [lambda x, r=r: (x > r) - (x < r), lambda x, r=r: (x > -r) - (x < -r)])
               for r in rational]
    factors += [(P([-d, 0, 1]), [surd_side(0, 1, d), surd_side(0, -1, d)]) for d in surds]
    factors += [(P([rng.randint(1, 9), 0, 1]), []) for _ in range(rng.randint(0, 2))]
    k = rng.choice([0, 1, 2, 3] if repeated else [0, 1])
    if k:
        factors.append((P([0, 1]), [lambda x: (x > 0) - (x < 0)]))
    p, sqf, planted = P([rng.choice([1, -2, Fraction(7, 3)])]), Poly.one(), []
    for f, sides in factors:
        m = k if f == P([0, 1]) else mult()
        p, sqf = p * f**m, sqf * f
        planted += [(side, m) for side in sides]
    return p, sqf, planted


@pytest.mark.parametrize("width", [Fraction(1, 10**9), Fraction(1, 2**256), Fraction(1, 3), Fraction(64)])
@pytest.mark.parametrize("repeated", [False, True])
def test_parity_products_match_the_whole_tree(monkeypatch, width, repeated):
    # isolate_roots refines only the roots in [0, M] of a product with parity
    # and mirrors the rest; the zeros are the whole tree's, refined by plain
    # bisection, and the multiplicities the planted ones
    refined = []
    orig = roots._refine
    monkeypatch.setattr(roots, "_refine", lambda f, node, w, *parity: refined.append(node) or orig(f, node, w, *parity))
    rng, odd = random.Random(2021 + repeated), 0
    for _ in range(40):
        p, sqf, planted = parity_product(rng, repeated)
        if sqf.degree < 2:
            continue
        iso = _Isolator(sqf)
        assert roots._parity(iso.chain[0])
        odd += sqf.degree % 2
        want = []
        for iv in tree_walk(iso):
            (m,) = [m for side, m in planted if inside(iv, side)]
            want.append((bisection_refine(iso, iv, width), m))
        refined.clear()
        rs = isolate_roots(p, width)
        assert [(r.interval, r.multiplicity) for r in rs.roots] == want
        assert len(refined) == sum(iv.hi > 0 or iv.lo == 0 for iv, _ in want)  # none below 0 is refined
    assert odd > 5


def test_odd_member_with_one_real_root_keeps_the_top_node():
    # x (x^2 + 1): the whole tree keeps (-M, M] and refines it, to [0, 0]
    # or, when the width allows, not at all
    p = P([0, 1]) * P([1, 0, 1])
    M = _Isolator(p).bound
    for width in (Fraction(1, 10**6), 2 * M, 3 * M):
        want = bisection_refine(_Isolator(p), Interval(-M, M), width)
        assert [r.interval for r in isolate_roots(p, width).roots] == [want]
    assert [r.interval for r in isolate_roots(p, WIDTH).roots] == [Interval(Fraction(0), Fraction(0), False, False)]


def test_float_freud_members_match_the_whole_tree():
    # counted on the chain of the even part; the mpf ends of the mirrored
    # half are the exact mpf of the whole tree's ends, at either precision
    from ddepoly.freud import freud_recurrence_coeffs, freud_sequence

    for t, prec in ((Fraction(-1, 3), 192), (Fraction(3, 10), 512)):
        seq = freud_sequence(freud_recurrence_coeffs(t, 16, prec), 16)
        for n in range(2, 17):
            exact = roots._exact_image(seq[n])
            iso = _Isolator(exact)
            assert roots._parity(iso.chain[0]) and isinstance(roots._isolator(exact), roots._EvenIsolator)
            want = [roots._ends_of_kind(seq[n], bisection_refine(iso, iv, WIDTH)) for iv in tree_walk(iso)]
            rs = isolate_roots(seq[n], WIDTH)
            assert rs.count == n and [r.interval for r in rs.roots] == want


def parity_cases(rng):
    """Seeded `parity_product`s, x^s with s = 0..3 times even factors, each
    (product, squarefree part), and the odd members whose one real root is
    0.  A product that draws one complex pair twice has no squarefree part
    among its factors and is left out."""
    cases = [parity_product(rng, repeated)[:2] for repeated in (False, True) * 40]
    odd = [P([0, 1]) * P([1, 0, 1]), P([0, 3]) * P([1, 0, 1]) * P([4, 0, 1])]
    return [(p, sqf) for p, sqf in cases if sqf.degree >= 2 and _Isolator(sqf).gcd_degree == 0] + [(p, p) for p in odd]


def test_half_chain_counts_match_the_whole_line_oracles():
    # a squarefree p with parity is counted on the chain of its even part
    # r: every count is sturm_count's and every sign p's, both on p's own
    # chain, at +-inf, 0, +-M, the ends of the whole tree's nodes, p's
    # rational roots and seeded points off the dyadic grid; its walk,
    # mirrored, is the whole tree's.  Any other p with parity is counted on
    # its own chain
    rng = random.Random(2023)
    seen = set()
    for p, sqf in parity_cases(rng):
        iso, full = roots._isolator(sqf), _Isolator(sqf)
        c = sqf.primitive_int_coeffs()
        s = next(i for i, v in enumerate(c) if v)
        assert isinstance(iso, roots._EvenIsolator) and iso.s == s and iso.bound == full.bound
        assert len(iso.chain) <= sqf.degree // 2 + 1 and list(iso.chain[0]) == list(c[s::2])
        squarefree = _Isolator(p).gcd_degree == 0
        assert isinstance(roots._isolator(p), roots._EvenIsolator) == squarefree
        M = iso.bound
        walk = tree_walk(full)
        xs = {Fraction(0), M, -M} | {x for iv in walk for x in (iv.lo, iv.hi)}
        xs |= {x for i in range(1, 31) for j in range(1, 10) for x in (Fraction(i, j), Fraction(-i, j))
               if roots._value_int_poly(c, x.numerator, x.denominator) == 0}
        xs |= {Fraction(rng.randint(-99, 99), rng.choice([3, 7, 10])) * M / 100 for _ in range(6)}
        xs = sorted(xs)
        for x in xs:  # den^n p off p's own vector, by both
            value = iso.at(x.numerator, x.denominator)[1]
            assert value == full.at(x.numerator, x.denominator)[1] and iso.sign(x) == full.sign(x) == roots._sign(value)
        ends = [NEG_INF, *xs, POS_INF]
        for a, b in [*zip(ends, ends[1:]), *(sorted(rng.sample(ends, 2)) for _ in range(20))]:
            assert iso.count_half_open(a, b) == sturm_count(sqf, Interval(a, b)), (sqf, a, b)
        assert roots._mirror([interval(node) for node in locate_real_roots(sqf, iso)]) == walk
        x_mult = next(i for i, v in enumerate(p.primitive_int_coeffs()) if v)
        seen |= {("x^s", x_mult), ("squarefree", squarefree), ("walk", len(walk) == 1 and walk[0].lo < 0)}
        seen.add(("root at 0", any(iv.is_point and iv.lo == 0 for iv in walk)))
    assert {("x^s", s) for s in range(4)} | {(k, b) for k in ("squarefree", "walk", "root at 0") for b in (0, 1)} <= seen


@pytest.mark.parametrize("kind, params", [
    ("hermite", {}),
    ("jacobi", {"alpha": "1/2", "beta": "1/2"}),
    ("jacobi", {"alpha": "3", "beta": "3"}),
    ("euler_frobenius", {"kappa": "1", "r": "n+1"}),
    ("hermite_like", {"kappa": "2"}),
    ("vertgeim", {"a": "2", "b": "3", "alpha": "1/2"}),
])
def test_certify_next_on_parity_sequences_gives_the_whole_trees_zeros(kind, params):
    from ddepoly.dde import generate
    from ddepoly.families import FamilySpec, coefficient_source

    seq = generate(coefficient_source(FamilySpec(kind, params)), 16)
    prev = ()
    for n in range(1, 17):
        iso = _Isolator(seq[n])
        for width in (Fraction(1, 7), Fraction(1, 2**200), WIDTH):
            cert = roots.certify_next(seq[n - 1], prev, seq[n], width)
            want = tuple(bisection_refine(iso, iv, width) for iv in tree_walk(iso))
            assert cert.zeros == want == tuple(r.interval for r in isolate_roots(seq[n], width).roots)
        prev = cert.zeros


def test_certify_next_mirrors_the_separator_signs_of_a_member_with_parity(monkeypatch):
    # for q with parity, q's sign at a negative separator x whose mirror -x
    # is a separator too is read off -x, also where q vanishes (the one-sided
    # pair swapped); p may lack parity.  The certificate is the one computed
    # with parity ignored, and its zeros are the whole tree's
    value, parity, seen = roots._value_int_poly, roots._parity, set()

    def record(c, num, den, parity=None):
        seen.add(Fraction(num, den))
        return value(c, num, den, parity)

    rng = random.Random(22)
    certified = mirrored = mirrored_zeros = without_parity = 0
    for _ in range(80):
        rs = sorted({Fraction(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
        q_roots = sorted([-r for r in rs] + rs + ([Fraction(0)] * rng.randint(0, 1)))
        q = poly_from_roots(q_roots).scale(rng.choice([1, -2, Fraction(3, 7)]))
        if rng.random() < 0.5:  # p = q' has parity too
            p = q.derivative()
        else:  # one root of p in each gap of q, or on a root of q, with no symmetry
            picks = {rng.choice([a, a + (b - a) * Fraction(rng.randint(1, 9), 10)]) for a, b in zip(q_roots, q_roots[1:])}
            p = poly_from_roots(sorted(picks))
        symmetric = p.degree < 2 or parity(p.primitive_int_coeffs())
        prev = tuple(r.interval for r in isolate_roots(p, WIDTH).roots)
        ends = {x for iv in prev for x in (iv.lo, iv.hi)}
        mirror = {x for x in ends if x < 0 and -x in ends}
        seen.clear()
        monkeypatch.setattr(roots, "_value_int_poly", record)
        cert = roots.certify_next(p, prev, q, WIDTH)
        monkeypatch.setattr(roots, "_value_int_poly", value)
        monkeypatch.setattr(roots, "_parity", lambda c: False)
        assert cert == roots.certify_next(p, prev, q, WIDTH)
        monkeypatch.setattr(roots, "_parity", parity)
        assert not seen & mirror
        if cert is not None:
            iso = _Isolator(q)
            assert cert.zeros == tuple(bisection_refine(iso, iv, WIDTH) for iv in tree_walk(iso))
            certified += 1
            mirrored += len(mirror)
            mirrored_zeros += sum(q(x) == 0 for x in mirror)
            without_parity += bool(mirror) and not symmetric
    assert certified > 60 and mirrored > 100 and mirrored_zeros > 3 and without_parity > 10


# sha256 of repr(sequence_zeros(P_0..P_N, width)), zeros and places, for the
# six verify-families benchmark families at each (N, width), hermite at a
# fine width and one Freud float sequence; a change that moves a byte must
# say which member moved and why
GOLDEN_ZEROS = {
    "bell": ["d9b92fb2f2e1ef75d173ba2f846e7ef3ae0e7e95d811cbf804e6edc7cc4e7850",
             "188e499ca4a2b490fa7a04da5dfdbb825f6c36133d00e762548aa51a53b21bbc",
             "5a1cdd846486e76625bce7060ef031af09f6e48a3ec3ecbb50b371a5291d404e",
             "bf6a774aef4b051fc559a2e5fb75dad93b3182b659c96a2da7d68915b4d0b198",
             "f5f1285a5b7fcb7e226f66cfe6362200dea3e3e883366acbce587706e731f82d"],
    "hermite": ["8b5508053525db9b853c91d6e56dc07ece1ccf472c1d19aa6b3cbe8b72e6a19c",
                "42f91fc7a2307dd6d7aeb78ff6bf6c8ca205095fe8294c4245f5ce4575c7217b",
                "d0ee5544cc536227c15916167fb702f761c895c5d3b14f763a0e673dc1e8c4b7",
                "89eee18cc1503f5f4b2c4e9b4a3daf638f4ac88e8c3110849fab2bc9e78e76e7",
                "099fb166cd94da955ea5b42d724c845d1ea2cf5a8ee1d2dc63fdc2c0357a3715"],
    "jacobi": ["2f441fe6cc455d56f140018ea05ef92faeb82b3c9d1f1e5e54006bd03c4150ad",
               "bfb7d0dfcceba05ee7c831dd639e87effa32e657361f0fe275c9ca7b62c00d37",
               "6bdaf9ebabc7925d1e7e0e4060941225690a3fce60613aec5ba6aa28acbc2bb5",
               "4b829462bc36b54fe2731b92b7fa3b56abeb65a6a7b64cbc0065b5d003068e3f",
               "9e375530184294d72a2d7b1b6b5f3c04bc3e3f808c1f7366394d47d4116bd5bb"],
    "euler_frobenius": ["df4b0eb1a9422c3864b4c3a2117012e3d4274c5e3a7add8d2518d0e1d39eef66",
                        "e9e11191c2027993921594771a97e0f8c55c25a145ab65bf34ba632179a1da83",
                        "4fb0bfd1cdc689c53a00106e87706462d1e300d1f96877242f4d5b3da1aa410b",
                        "3e68e2af1a36207db9c63381ffd109596716907a602b41eacc7bc3207a82f35a",
                        "e8a19649a99c5886f66cf59eef83719946363b5cb43a463b9406c5f83ecc6cdc"],
    "laguerre": ["a740111493624d7cd01f025eb17792b55b15ec429d7338843877e5730cdfcedc",
                 "8e0cbb7433012a9b39e3d878b568e326a5e762d3f50ebb5bbdbff6a370ed1507",
                 "5de559c4ca570f0ac4338938031af0f199a969518c52586d069071cccbba5183",
                 "de0d1dffe7fbc3c4b863fe0c6af22226945c430d3e53cacb05ffb712869b0836",
                 "a1efb4e8fc73379dd891d0e2aaf38bf5519fdb42681dcdbfb641d3c9b0069240"],
    "hyp2f1": ["5707b9c03579c1721e662d1e5b4151c7967cab1c489e33d73b1b22d9f7d3fff9",
               "eca67407d377ccdf3553ef031332b4c3f2fda016631b7c219d1e035659916cc2",
               "0cf179bd4cbdfa22d67c8ebcaa375c9008aad6116dd98f57b788ed2de329f8eb",
               "7cd24d2a1b71d7d33025dfdfa09fb74d113e27c3e1ef2851e19f718875020457",
               "7cd24d2a1b71d7d33025dfdfa09fb74d113e27c3e1ef2851e19f718875020457"],
    "hermite N=20 width 1e-40": "e7b52a4789f9ccadf708d4ac8bbb122d7e4e9aedd8017fa453ff8e770e65f163",
    "freud t=1/3 N=16 256 bits": "02cd3d96b4c2fcad4ecd084b7a7d9f8cfc55d1c1ef47eb59a4cbe1e807e4e22c",
}
GOLDEN_CELLS = ((14, Fraction(1, 10**9)), (40, Fraction(1, 10**9)), (30, Fraction(1, 10)), (30, Fraction(1)),
                (30, Fraction(4096)))


def test_sequence_zeros_golden():
    from ddepoly.dde import generate
    from ddepoly.families import FamilySpec, coefficient_source
    from ddepoly.freud import freud_recurrence_coeffs, freud_sequence
    from ddepoly.roots import sequence_zeros

    def digest(polys, width):
        return hashlib.sha256(repr(sequence_zeros(polys, width)).encode()).hexdigest()

    params = {"jacobi": {"alpha": "1/2", "beta": "1/2"}, "euler_frobenius": {"kappa": "1", "r": "n+1"},
              "laguerre": {"alpha": "1/2"}, "hyp2f1": {"b": "40", "c": "1"}}
    got = {}
    for kind in ("bell", "hermite", "jacobi", "euler_frobenius", "laguerre", "hyp2f1"):
        polys = generate(coefficient_source(FamilySpec(kind, params.get(kind, {}))), 40).polys
        got[kind] = [digest(polys[:N + 1], width) for N, width in GOLDEN_CELLS]
    hermite = generate(coefficient_source(FamilySpec("hermite", {})), 20).polys
    got["hermite N=20 width 1e-40"] = digest(hermite, Fraction(1, 10**40))
    freud = freud_sequence(freud_recurrence_coeffs(Fraction(1, 3), 16, 256), 16).polys
    got["freud t=1/3 N=16 256 bits"] = digest(freud, mpmath.mpf(1e-9))
    assert got == GOLDEN_ZEROS

    # an end of P_n equal to +-M keeps its own key: jacobi(1/2, 1/2) at
    # width 4096 has P_2's zeros (-4, 0] and (0, 4], and P_3's M is 4
    jacobi = generate(coefficient_source(FamilySpec("jacobi", params["jacobi"])), 3).polys
    rs = sequence_zeros(jacobi, Fraction(4096))
    assert [(iv.lo, iv.hi) for iv in rs[2].zeros] == [(-4, 0), (0, 4)]
    assert roots._dyadic_bound(jacobi[3].primitive_int_coeffs()) == 4 and rs[3].places == (0, 2, 4)
    # +-M (8 for x^3 - x) get no key when an end of P_n lies beyond them: the
    # bracket (0, 8) is not placed against p's root 1/2
    prev = (Interval(Fraction(-1), Fraction(0)), Interval(Fraction(0), Fraction(64)))
    assert roots.certify_next(P([-1, 0, 4]), prev, P([0, -1, 0, 1]), WIDTH).places == (0, 2, None)
    # a point [0, 0] keeps its key 2j + 1 against the adjacent end 0 of (0, 1]
    # of x (3x - 1), so the bracket (0, 1) of (x + 1)(4x - 1)(x - 2) stays unplaced
    prev = (Interval(Fraction(0), Fraction(0), False, False), Interval(Fraction(0), Fraction(1)))
    q = P([1, 1]) * P([-1, 4]) * P([-2, 1])
    assert roots.certify_next(P([0, -1, 3]), prev, q, WIDTH).places == (0, None, 4)
