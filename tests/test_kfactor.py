import random
from fractions import Fraction

import mpmath
import pytest

from ddepoly.dde import CoefficientPair
from ddepoly.kfactor import (
    SingularPointError,
    boundary_zeros,
    classify,
    decide_case,
    k_eval,
    limit_class,
    normalize,
)
from ddepoly.poly import NEG_INF, POS_INF, Poly
from ddepoly.verify import check_k_identity

P = Poly.rational


def pair(a, b):
    return CoefficientPair(P(a), P(b))


def points(zs):
    return [z.point for z in zs]


def b_root(k):
    """The root of the normalized linear B."""
    b0, b1 = k.pair.B.coeffs
    return -b0 / b1


def test_normalize_examples():
    c = normalize(pair([-2, 0, 2], [0, 4]))
    assert c.A == P([-1, 0, 1]) and c.B == P([0, 2])
    c = normalize(pair([-1], [0, 2]))
    assert c.A == P([1]) and c.B == P([0, -2])
    with pytest.raises(ValueError):
        normalize(pair([], [0, 1]))


def test_classify_scaled_square_factor():
    # A = kappa(1 - x^2), B = -2 kappa r x: exponents r at both roots
    for kappa, r in [(Fraction(1), Fraction(2)), (Fraction(-3), Fraction(5, 2))]:
        k = classify(pair([kappa, 0, -kappa], [0, -2 * kappa * r]))
        assert k.tag == "distinct-roots-linear-B"
        assert k.exponent_at(Fraction(1)) == r
        assert k.exponent_at(Fraction(-1)) == r
        assert b_root(k) == 0


def test_classify_shared_growth():
    k = classify(pair([0, 1], [0, 1]))
    assert k.tag == "linear-A-equal"
    assert k.form.lin == 1 and not k.form.log_terms  # pure e^x
    assert k.a_roots == ((0, 1),) and b_root(k) == 0 and k.pair.B.lead == 1


def test_classify_constant_a():
    k = classify(pair([1], [-6, 3]))  # B = 3(x - 2)
    assert k.tag == "constant-A"
    assert k.form.quad == Fraction(3, 2) and k.form.lin == -6
    assert b_root(k) == 2 and k.pair.B.lead == 3


def test_classify_double_root_cases():
    # A = (x-1)^2, B = 2(x-3): algebraic power 2, pole strength -B(1) = 4
    k = classify(pair([1, -2, 1], [-6, 2]))
    assert k.tag == "equal-roots-linear-B"
    assert k.exponent_at(Fraction(1)) == 2
    assert k.form.pole_at(Fraction(1)) == 4
    # mu matching the double root removes the pole: pure power
    k = classify(pair([1, -2, 1], [-2, 2]))
    assert k.tag == "B-root-matches-A-root"
    assert k.form.pole_at(Fraction(1)) == 0 and k.exponent_at(Fraction(1)) == 2
    # constant B keeps only the pole
    k = classify(pair([1, -2, 1], [5]))
    assert k.tag == "equal-roots-constant-B"
    assert k.exponent_at(Fraction(1)) == 0 and k.form.pole_at(Fraction(1)) == -5


def test_exponents_at_irrational_roots_keep_full_precision():
    # A = x^2 - x - 1, B = x + 1: exponent B(r)/A'(r) at r = (1 +- sqrt 5)/2, summing to b_1 = 1
    k = classify(pair([-1, -1, 1], [1, 1]))
    assert k.numeric
    (xi, _), (lam, _) = k.a_roots
    e_lam, e_xi = k.exponent_at(lam), k.exponent_at(xi)
    with mpmath.workprec(300):
        assert abs(e_lam + e_xi - 1) < mpmath.mpf(2) ** -250
        for r, e in ((lam, e_lam), (xi, e_xi)):
            root = (1 + mpmath.sqrt(5) * (1 if r > 0 else -1)) / 2
            assert abs(e - (root + 1) / (2 * root - 1)) < mpmath.mpf(2) ** -250


def test_classify_extensions():
    assert classify(pair([3, 0, 1], [1, 2])).tag == "irreducible-quadratic-A"
    assert classify(pair([1, 1], [])).tag == "B-zero"
    assert classify(pair([1, 1], [4])).tag == "linear-A-constant-B"
    assert classify(pair([2], [3])).tag == "constant-A-constant-B"
    for tag in ("irreducible-quadratic-A", "B-zero", "linear-A-constant-B", "constant-A-constant-B"):
        assert classify_ext(tag).extension


def classify_ext(tag):
    samples = {
        "irreducible-quadratic-A": pair([3, 0, 1], [1, 2]),
        "B-zero": pair([1, 1], []),
        "linear-A-constant-B": pair([1, 1], [4]),
        "constant-A-constant-B": pair([2], [3]),
    }
    return classify(samples[tag])


def test_classify_scale_invariance():
    rng = random.Random(11)
    for _ in range(40):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if not any(a):
            a[2] = Fraction(1)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
        s = Fraction(rng.choice([2, -3, 7, -1]), rng.choice([1, 2, 5]))
        k1 = classify(pair(a, b))
        k2 = classify(CoefficientPair(P(a).scale(s), P(b).scale(s)))
        assert k1.tag == k2.tag
        assert k1.form == k2.form


def test_boundary_square_factor():
    k = classify(pair([1, 0, -1], [0, -4]))  # K = (x^2-1)^2
    b = boundary_zeros(k)
    assert points(b.zeros_of_k) == [Fraction(-1), Fraction(1)]
    assert all(z.sides == "both" for z in b.zeros_of_k)
    assert b.k_zero_count == 2


def test_boundary_shared_growth():
    b = boundary_zeros(classify(pair([0, 1], [0, 1])))  # K = e^x
    assert points(b.zeros_of_k) == [NEG_INF]
    assert points(b.zeros_of_a_over_k) == [Fraction(0), POS_INF]


def test_boundary_gaussian():
    b = boundary_zeros(classify(pair([-1], [0, 2])))  # K = exp(-x^2)
    assert points(b.zeros_of_k) == [NEG_INF, POS_INF]
    assert b.k_zero_count == 1
    assert points(b.zeros_of_a_over_k) == []


def test_boundary_one_sided_pole_zero():
    # K = exp(-5/(x-1)): vanishes only approaching 1 from above
    b = boundary_zeros(classify(pair([1, -2, 1], [5])))
    assert len(b.zeros_of_k) == 1
    z = b.zeros_of_k[0]
    assert z.point == 1 and z.sides == "right"


def test_three_vanishing_points_stay_bounded():
    # K = |x-1| / |x+1|^3 vanishes at 1 and at both infinite ends; the
    # taxonomy count identifies the infinite ends, staying at 2
    b = boundary_zeros(classify(pair([-1, 0, 1], [4, -2])))
    assert len(b.zeros_of_k) == 3
    assert b.k_zero_count == 2


def near(zs, expected):
    """Points of `zs` within 2^-250 of `expected`, all sides two-sided."""
    with mpmath.workprec(300):
        return (
            [z.sides for z in zs] == ["both"] * len(expected)
            and all(abs(z.point - e) < mpmath.mpf(2) ** -250 for z, e in zip(zs, expected))
        )


def test_surd_roots_constant_b_k_finite_at_infinity():
    # A = x^2 - 5, B = 1: K = |x - r|^(1/2r) |x + r|^(-1/2r), r = sqrt 5, tends to 1 at both
    # infinite ends, so it vanishes at r only; A/K ~ x^2 vanishes at -r and r
    b = boundary_zeros(classify(pair([-5, 0, 1], [1])))
    with mpmath.workprec(300):
        r = mpmath.sqrt(5)
        roots = [-r, r]
    assert near(b.zeros_of_k, [r])
    assert near(b.zeros_of_a_over_k, roots)
    assert b.k_zero_count == 1
    dec = decide_case([b] * 4, Fraction(0))
    assert dec.diagnosis["a"] == "n=1: K vanishes at 1 point(s), need exactly 2"


def test_surd_roots_a_over_k_finite_at_infinity():
    # A = x^2 + (2/5)x - 1, B = 2x + 9: A/K ~ |x|^(2 - 2) has a finite limit at both ends
    b = boundary_zeros(classify(pair([-1, Fraction(2, 5), 1], [9, 2])))
    with mpmath.workprec(300):
        xi, lam = (-1 - mpmath.sqrt(26)) / 5, (-1 + mpmath.sqrt(26)) / 5
    assert near(b.zeros_of_k, [lam])
    assert near(b.zeros_of_a_over_k, [xi])
    assert b.k_zero_count == 1


def test_algebraic_decay_reported_exactly():
    # A = x^2 - 5, B = -x: K = 1/|x^2 - 5|^(1/2) decays like |x|^-1
    b = boundary_zeros(classify(pair([-5, 0, 1], [0, -1])))
    dec = decide_case([b] * 3, Fraction(0))
    assert dec.diagnosis["a"] == (
        "n=1: K decays only algebraically (like |x|^-1) at -inf, too slowly to damp a degree-1 member"
    )


def test_growth_at_infinity_matches_exact_exponent():
    # |K| ~ |x|^E at both infinite ends, with E the x-coefficient of the monic B for
    # quadratic A and the constant of the monic B for linear A and constant B;
    # |A/K| ~ |x|^(deg A - E)
    rng = random.Random(8)
    small = [Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 5)]
    surds = 0
    for _ in range(600):
        lead = Fraction(rng.choice([1, -2, Fraction(3, 2)]))
        deg = rng.choice([1, 2, 2])
        a = [rng.choice(small) for _ in range(deg)] + [lead]
        e = lead * rng.choice([0, 0, 1, 2, 2, -1, 3, Fraction(1, 2)])
        b = [rng.choice(small), e] if deg == 2 else [e]
        k = classify(pair(a, b))
        surds += k.numeric
        exponent = e / lead
        for form, g in ((k.form, exponent), (k.a_over_k_form(), deg - exponent)):
            want = "inf" if g > 0 else ("zero" if g < 0 else "finite")
            assert limit_class(form, NEG_INF) == limit_class(form, POS_INF) == want, (a, b)
    assert surds > 100


def test_zero_count_bound_random():
    rng = random.Random(23)
    for _ in range(300):
        b = boundary_zeros(classify(random_pair(rng)))
        assert b.k_zero_count <= 2


def random_pair(rng):
    shape = rng.randrange(6)
    halves = [Fraction(k, 2) for k in range(-10, 11)]
    if shape == 0:
        A = [Fraction(rng.choice([1, 2, -3]))]
    elif shape in (1, 2):
        lam = rng.choice(halves)
        A = list((P([-lam, 1]) * P([rng.choice([1, 2, -2])])).coeffs)
    else:
        lam, xi = rng.choice(halves), rng.choice(halves)
        A = list((P([-lam, 1]) * P([-xi, 1]) * P([rng.choice([1, -1, 3])])).coeffs)
    bshape = rng.randrange(4)
    if bshape == 0:
        B = []
    elif bshape == 1:
        B = [Fraction(rng.randint(-6, 6))]
        if not B[0]:
            B = [Fraction(1)]
    else:
        mu = rng.choice(halves)
        kap = Fraction(rng.choice([1, -1, 2, -2, 5, Fraction(1, 2)]))
        B = list(P([-mu * kap, kap]).coeffs)
    return pair(A, B)


def test_log_derivative_matches_ratio():
    cases = [
        pair([-1], [0, 2]),
        pair([0, 1], [0, 1]),
        pair([1, 0, -1], [0, -4]),
        pair([1, -2, 1], [-6, 2]),
        pair([3, 0, 1], [1, 2]),
        pair([-1, 0, 1], [4, -2]),
        pair([0, 1], []),
    ]
    for c in cases:
        assert check_k_identity(c, samples=50) < 1e-5


def test_k_eval_examples():
    k = classify(pair([-1, 0, 1], [0, 2]))  # K = x^2 - 1
    assert abs(k_eval(k, Fraction(2)) - 3) < 1e-12
    assert abs(k_eval(classify(pair([5, 0, 1], [])), Fraction(7)) - 1) < 1e-15
    assert abs(k_eval(classify(pair([0, 1], [0, 1])), Fraction(0)) - 1) < 1e-15
    with pytest.raises(SingularPointError):
        k_eval(k, Fraction(1))


def ef_spec(n, r_rule=lambda n: n + 1):
    return boundary_zeros(classify(pair([1, 0, -1], [0, -2 * r_rule(n)])))


def test_decide_case_a_square_factor():
    dec = decide_case([ef_spec(n) for n in range(1, 11)], Fraction(0))
    assert dec.case == "a" and dec.interlacing and dec.real_simple
    assert dec.alphas[0] == -1 and dec.betas[0] == 1
    assert dec.containment[0] == (Fraction(-1), Fraction(1), False, False)


def test_decide_case_c_shared_growth():
    specs = [boundary_zeros(classify(pair([0, 1], [0, 1]))) for _ in range(12)]
    dec = decide_case(specs, Fraction(0))
    assert dec.case == "c" and not dec.interlacing and dec.real_simple
    assert dec.alphas[0] == NEG_INF and dec.betas[0] == 0
    assert dec.containment[0] == (NEG_INF, Fraction(0), False, True)


def test_decide_case_c_mirrored():
    # A = x, B = -x: K = e^{-x}, zeros of A/K at 0 and -inf: interval [0, inf)
    specs = [boundary_zeros(classify(pair([0, 1], [0, -1]))) for _ in range(6)]
    dec = decide_case(specs, Fraction(0))
    assert dec.case == "c"
    assert dec.alphas[0] == 0 and dec.betas[0] == POS_INF
    assert dec.containment[0] == (Fraction(0), POS_INF, True, False)


def test_decide_case_b_strict_growth():
    # A = x(x - mu_n), B = x - mu_n with mu_n = n + 2: K = |x|,
    # A/K vanishes exactly at mu_n, which grows strictly
    def spec(n):
        mu = n + 2
        return boundary_zeros(classify(pair([0, -mu, 1], [-mu, 1])))

    dec = decide_case([spec(n) for n in range(1, 8)], Fraction(2))
    assert dec.case == "b" and dec.interlacing
    assert dec.alphas[0] == 0 and dec.betas[0] == 3
    assert list(dec.betas) == [n + 2 for n in range(1, 8)]


def test_decide_case_d_synthetic():
    specs = [boundary_zeros(classify(pair([-((n + 1) ** 2), 0, 1], []))) for n in range(1, 11)]
    dec = decide_case(specs, Fraction(0))
    assert dec.case == "d" and dec.interlacing and dec.containment is None
    assert list(dec.alphas) == [-(n + 1) for n in range(1, 11)]
    assert list(dec.betas) == [n + 1 for n in range(1, 11)]


def test_decide_out_of_window_reports_failure():
    # B = n + 1 - 20x: the factor exponent at 1 is 19 - n, nonpositive from n = 19
    def spec(n):
        return boundary_zeros(classify(pair([0, 1, -1], [n + 1, -20])))

    dec = decide_case([spec(n) for n in range(1, 26)], Fraction(1, 20))
    assert dec.case == "none"
    assert "n=19" in dec.diagnosis["a"]


def test_decide_strict_extension_refuses_irreducible():
    specs = [boundary_zeros(classify(pair([3, 0, 1], [0, -12]))) for _ in range(3)]
    dec = decide_case(specs, Fraction(0), strict_extension=True)
    assert dec.case == "none"
    assert "irreducible" in dec.diagnosis["all"]
    dec = decide_case(specs, Fraction(0))
    # K = (x^2+3)^{-6} vanishes at both infinite ends fast enough for n <= 3
    assert dec.case == "a"


def test_decide_rejects_slow_algebraic_decay():
    # K = (x^2+3)^{-1} vanishes at both infinite ends but cannot damp
    # members of degree >= 2, so the two-endpoint case must be refused
    specs = [boundary_zeros(classify(pair([3, 0, 1], [0, -2]))) for _ in range(3)]
    dec = decide_case(specs, Fraction(0))
    assert dec.case == "none"
    assert "algebraically" in dec.diagnosis["a"]
