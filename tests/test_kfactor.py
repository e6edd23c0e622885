import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from ddepoly.dde import CoefficientPair
from ddepoly.kfactor import (
    BoundarySpec,
    SidedZero,
    boundary_zeros,
    classify,
    decide_case,
    limit_class,
    normalize,
)
from ddepoly.poly import NEG_INF, POS_INF, Poly, Surd, is_finite
from ddepoly.verify import _log_derivative, check_k_identity

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
    # A = x^2 - x - 1, B = x + 1: exponent B(r)/A'(r) at r = (1 +- sqrt 5)/2 is
    # (3 +- sqrt 5) / (+-2 sqrt 5) = 1/2 +- (3/10) sqrt 5, exactly; they sum to b_1 = 1
    k = classify(pair([-1, -1, 1], [1, 1]))
    (xi, _), (lam, _) = k.a_roots
    assert xi == Surd(Fraction(1, 2), Fraction(-1, 2), 5) and lam == Surd(Fraction(1, 2), Fraction(1, 2), 5)
    assert k.exponent_at(lam) == Surd(Fraction(1, 2), Fraction(3, 10), 5)
    assert k.exponent_at(xi) == Surd(Fraction(1, 2), Fraction(-3, 10), 5)
    # R(a) = 0 at the midpoint a of the roots leaves the rational residue r1/2 at both
    k = classify(pair([-1, -1, 1], [-1, 2]))
    assert k.exponent_at(lam) == k.exponent_at(xi) == 1 and isinstance(k.exponent_at(lam), Fraction)


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
    """Points of `zs` equal to `expected`, all sides two-sided."""
    return [(z.point, z.sides) for z in zs] == [(e, "both") for e in expected]


def test_surd_roots_constant_b_k_finite_at_infinity():
    # A = x^2 - 5, B = 1: K = |x - r|^(1/2r) |x + r|^(-1/2r), r = sqrt 5, tends to 1 at both
    # infinite ends, so it vanishes at r only; A/K ~ x^2 vanishes at -r and r
    b = boundary_zeros(classify(pair([-5, 0, 1], [1])))
    r = Surd(0, 1, 5)
    roots = [Surd(0, -1, 5), r]
    assert near(b.zeros_of_k, [r])
    assert near(b.zeros_of_a_over_k, roots)
    assert b.k_zero_count == 1
    dec = decide_case([b] * 4, Fraction(0))
    assert dec.diagnosis["a"] == "n=1: K vanishes at 1 point(s), need exactly 2"


def test_surd_roots_a_over_k_finite_at_infinity():
    # A = x^2 + (2/5)x - 1, B = 2x + 9: A/K ~ |x|^(2 - 2) has a finite limit at both ends
    b = boundary_zeros(classify(pair([-1, Fraction(2, 5), 1], [9, 2])))
    xi, lam = Surd(Fraction(-1, 5), Fraction(-1, 5), 26), Surd(Fraction(-1, 5), Fraction(1, 5), 26)
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
        surds += any(isinstance(r, Surd) for r, _ in k.a_roots)
        exponent = e / lead
        for form, g in ((k.form, exponent), (k.a_over_k_form(), deg - exponent)):
            want = "inf" if g > 0 else ("zero" if g < 0 else "finite")
            assert limit_class(form, NEG_INF) == limit_class(form, POS_INF) == want, (a, b)
    assert surds > 100


def kind_pair(rng, kind):
    """A seeded pair whose A is linear, or quadratic with no real roots, two
    rational roots (possibly equal) or two surd roots r +- sqrt(d); "pole"
    is a double root r with B(r) != 0, and "B-zero" one of the four with B = 0."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    lead = q() or Fraction(1)
    r = q()
    if kind == "B-zero":
        return CoefficientPair(kind_pair(rng, rng.choice(("linear", "complex", "rational", "surd"))).A, P([]))
    if kind == "linear":
        A = [-r * lead, lead]
    elif kind == "rational":
        A = list((P([-r, 1]) * P([-rng.choice([r, q()]), 1]) * P([lead])).coeffs)
    elif kind == "pole":
        t = q()
        return pair(list((P([-r, 1]) * P([-r, 1]) * P([lead])).coeffs), [(q() or 1) - t * r, t])
    else:
        d = rng.choice([2, 3, 5, Fraction(7, 4)]) * (1 if kind == "surd" else -1)
        A = [(r * r - d) * lead, -2 * r * lead, lead]
    B = rng.choice([[], [q() or 1], [q(), q() or 1], [-r, 1]])
    return pair(A, B)


def sided_zeros(form):
    """The (point, sides) zeros of exp(form), ascending, assembled from
    limit_class at each singular point and at +-inf."""
    out = []
    for s in form.singular_points():
        below, above = limit_class(form, s, "-") == "zero", limit_class(form, s, "+") == "zero"
        if below or above:
            out.append((s, "both" if below and above else ("left" if below else "right")))
    if limit_class(form, NEG_INF) == "zero":
        out.insert(0, (NEG_INF, "right"))
    if limit_class(form, POS_INF) == "zero":
        out.append((POS_INF, "left"))
    return out


def blow_ups(form):
    return [s for s in form.singular_points() if "inf" in (limit_class(form, s, "-"), limit_class(form, s, "+"))]


def test_boundary_zeros_match_pointwise_limits():
    # the sided zeros and blow-up points of the oracle above, A/K's from its
    # own partial-fraction form
    rng = random.Random(29)
    one_sided = singular = surds = poles = 0
    tags = Counter()
    kinds = ("linear", "complex", "rational", "surd", "B-zero", "pole")
    for i in range(1200):
        k = classify(kind_pair(rng, kinds[i % len(kinds)]))
        b = boundary_zeros(k)
        form = k.form
        assert [(z.point, z.sides) for z in b.zeros_of_k] == sided_zeros(form)
        assert [(z.point, z.sides) for z in b.zeros_of_a_over_k] == sided_zeros(k.a_over_k_form())
        want = blow_ups(form)
        assert list(b.k_singular) == want
        one_sided += any(z.sides != "both" for z in b.zeros_of_k if is_finite(z.point))
        singular += bool(want)
        surds += any(isinstance(r, Surd) for r, _ in k.a_roots)
        poles += bool(form.poles)
        tags[k.tag] += 1
    assert one_sided > 20 and singular > 100 and surds > 100
    assert poles > 100 and tags["irreducible-quadratic-A"] > 100 and tags["B-zero"] > 100


def wide_pair(rng, kind):
    """A pair whose numerators and denominators reach 2^64, with a lead of
    either sign: A constant, linear, or quadratic with two rational, equal,
    surd or no real roots (a surd's d at times carries 1009^2 or 1013^-2);
    B zero, constant, linear, vanishing at a root of A, or t A' (K = |A|^t)."""
    def q(bits=64):
        return Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))

    lead, r, x = q() or Fraction(1), q(), P([0, 1])
    if kind == "constant":
        A = P([lead])
    elif kind == "linear":
        A = P([-r, 1]) * P([lead])
    elif kind in ("rational", "double"):
        A = P([-r, 1]) * P([-(q() if kind == "rational" else r), 1]) * P([lead])
    else:
        d = Fraction(rng.randint(1, 2**64), rng.randint(1, 2**64)) * rng.choice([1, 1009**2, Fraction(1, 1013**2)])
        A = ((x - P([r])) ** 2 + P([d if kind == "complex" else -d])) * P([lead])
    B = rng.choice([P([]), P([q() or 1]), P([q(), q() or 1]), P([q(8), q(8) or 1])])
    if A.degree and rng.random() < 0.2:
        B = A.derivative().scale(rng.choice([0, 1, 2, -1, Fraction(1, 2), q(8)]))
    elif A.degree and rng.random() < 0.2:
        B = P([-r, 1]) * P([q() or 1])
    return CoefficientPair(A, B)


def test_integer_kernel_on_wide_coefficients():
    # ~2,000 pairs with 64-bit numerators and denominators: the K identity
    # holds exactly for K's form (R = B) and for A/K's (R = A' - B), and
    # boundary_zeros agrees with the pointwise oracle
    rng = random.Random(64)
    kinds = ("constant", "linear", "rational", "double", "surd", "complex")
    pairs = [wide_pair(rng, kinds[i % len(kinds)]) for i in range(1980)]
    pairs += [pair([Fraction(-2025, 4 * 1009**2) * s, Fraction(s, 1009), s], [0, s]) for s in (1, -3)]
    tags, surds, negative = Counter(), 0, 0
    for c in pairs:
        k = classify(c)
        form, a_over_k = k.form, k.a_over_k_form()
        for f, R in ((form, c.B), (a_over_k, c.A.derivative() - c.B)):
            num, den = _log_derivative(f)  # f' = R/A for the pair as given, cross-multiplied
            assert num * c.A == R * den, c
        b = boundary_zeros(k)
        assert [(z.point, z.sides) for z in b.zeros_of_k] == sided_zeros(form), c
        assert [(z.point, z.sides) for z in b.zeros_of_a_over_k] == sided_zeros(a_over_k), c
        assert list(b.k_singular) == blow_ups(form), c
        shared = c.B.degree == 1 and any(isinstance(r, Fraction) and c.B(r) == 0 for r, _ in k.a_roots)
        assert (k.tag in ("linear-A-equal", "B-root-matches-A-root")) == shared, c
        tags[k.tag] += 1
        surds += any(isinstance(r, Surd) for r, _ in k.a_roots)
        negative += c.A.lead < 0
    assert len(tags) == 12 and min(tags.values()) > 10, tags
    assert surds > 300 and negative > 900


def test_boundary_zeros_reads_a_over_k_off_k(monkeypatch):
    # one pass over A's roots: no second partial-fraction form, no limit_class
    import ddepoly.kfactor as kf

    calls = Counter()
    for name in ("_log_form", "limit_class"):
        monkeypatch.setattr(kf, name, lambda *a, f=getattr(kf, name), name=name: calls.update([name]) or f(*a))
    rng = random.Random(30)
    ks = [classify(kind_pair(rng, kind)) for kind in ("linear", "complex", "rational", "surd", "B-zero", "pole") * 20]
    calls.clear()
    for k in ks:
        boundary_zeros(k)
    assert not calls


def golden_boundary_pairs():
    """3,300 seeded pairs in a fixed cycle of shapes: the four A kinds with a
    random B, constant A, a double root with a pole, B = t A' (K = |A|^t),
    linear A with B vanishing at its root or not, B vanishing at one of two
    rational roots, the half-integer pairs and surd roots with a random B.
    A is rarely monic."""
    rng = random.Random(18)
    small = [Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3)]
    leads = [Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-1, 3), Fraction(5)]

    def nz():
        return rng.choice([s for s in small if s])

    def scaled(a, lead):
        return [lead * c for c in a]

    def lin(m):
        return P([-m, 1])

    out = []
    for i in range(3300):
        shape, lead, m, t = i % 11, rng.choice(leads), rng.choice(small), rng.choice(small)
        if shape < 4:
            out.append(kind_pair(rng, ("linear", "complex", "rational", "surd")[shape]))
            continue
        if shape == 4:
            a, b = [lead], rng.choice([[], [nz()], [t, nz()]])
        elif shape == 5:  # equal roots with the pole -B(m)/lead != 0
            a, b = list((lin(m) * lin(m)).coeffs), [nz() - t * m, t]
        elif shape == 6:  # K = |A|^t at two rational or two surd roots; t = 0, 1 included
            d = rng.choice([Fraction(1, 4), Fraction(9), Fraction(2), Fraction(3), Fraction(7, 4)])
            a = [m * m - d, -2 * m, Fraction(1)]
            t = rng.choice([Fraction(0), Fraction(1), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), t])
            b = [t * c for c in P(a).derivative().coeffs]
        elif shape == 7:  # B vanishing at A's root, or not
            a, b = list(lin(m).coeffs), rng.choice([[-t * m, t], [t - m, nz()], [nz()]])
        elif shape == 8:  # B vanishing at one of two rational roots
            a, b = list((lin(m) * lin(rng.choice(small))).coeffs), [-t * m, t]
        elif shape == 9:
            out.append(random_pair(rng))
            continue
        else:
            d = rng.choice([2, 3, 5, 6, Fraction(7, 4), Fraction(1, 3)])
            a, b = [m * m - d, -2 * m, Fraction(1)], [rng.choice(small), rng.choice(small)]
        out.append(pair(scaled(a, lead), scaled(b, lead)))
    return out


def test_boundary_zeros_golden_corpus():
    pairs = golden_boundary_pairs()
    specs = [boundary_zeros(classify(c)) for c in pairs]
    digest = hashlib.sha256("\n".join(map(repr, specs)).encode()).hexdigest()
    assert digest == "db92083c1537e445d1e1228caf50cd72c38c524941a066b98a806a08e58ea0b6"
    tags = {s.classification.tag for s in specs}
    assert tags == {
        "B-zero", "irreducible-quadratic-A", "constant-A-constant-B", "constant-A", "linear-A-constant-B",
        "linear-A-equal", "linear-A-distinct", "equal-roots-constant-B", "equal-roots-linear-B",
        "distinct-roots-constant-B", "distinct-roots-linear-B", "B-root-matches-A-root",
    }
    # equal roots with a pole, surd roots with e = 0 or 1 - e = 0, and points
    # where the sided zeros of A/K and K differ, by the kind of root
    seen = {"pole": 0, "surd-e-0": 0, "surd-e-1": 0, "non-monic": 0, "rational": 0, "surd": 0, "double": 0}
    for s, c in zip(specs, pairs):
        k = s.classification
        seen["non-monic"] += c.A.lead != 1
        kz = {z.point: z.sides for z in s.zeros_of_k}
        az = {z.point: z.sides for z in s.zeros_of_a_over_k}
        for r, mult in k.a_roots:
            surd = isinstance(r, Surd)
            seen["pole"] += mult == 2 and bool(k.form.pole_at(r))
            seen["surd-e-0"] += surd and k.exponent_at(r) == 0
            seen["surd-e-1"] += surd and k.exponent_at(r) == 1
            if kz.get(r) != az.get(r):
                seen["surd" if surd else ("double" if mult == 2 else "rational")] += 1
    assert min(seen.values()) > 0, seen


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
        pair([-1, -1, 1], [1, 1]),  # surd roots (1 +- sqrt 5)/2, surd exponents
    ]
    for c in cases:
        assert check_k_identity(c) < 1e-5


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


def test_close_surd_roots_stay_two_singular_points():
    # A = (x-1)^2 - 2 10^-160 has the roots 1 +- sqrt(2) 10^-80, which 256-bit
    # floats cannot tell apart; as surds they are two points with opposite exponents
    c0 = 1 - Fraction(2, 10**160)
    k = classify(pair([c0, -2, 1], [0, 1]))
    xi, lam = k.form.singular_points()
    assert xi < 1 < lam and lam != xi
    assert k.exponent_at(xi) < -(10**79) and k.exponent_at(lam) > 10**79  # 1/2 -+ 10^80 / (2 sqrt 2)
    dec = decide_case([boundary_zeros(k)] * 3, Fraction(0))
    assert dec.case == "none"
    assert dec.diagnosis["a"] == "n=1: K vanishes at 1 point(s), need exactly 2"


def test_surd_roots_carry_squarefree_radicands():
    # sqrt(d) keeps no square factor: the squares of small primes come out,
    # and so does a cofactor of large primes that is itself a square
    def roots(c0):
        return [r for r, _ in classify(pair([c0, 0, 1], [0, 1])).a_roots]

    assert [(r.a, r.b, r.d) for r in roots(-8)] == [(0, -2, 2), (0, 2, 2)]
    assert [(r.b, r.d) for r in roots(Fraction(-5, 12))] == [(Fraction(-1, 6), 15), (Fraction(1, 6), 15)]
    assert [(r.b, r.d) for r in roots(-2 * 1009**2)] == [(-1009, 2), (1009, 2)]
    assert [(r.b, r.d) for r in roots(-1009 * 1013 * 9)] == [(-3, 1009 * 1013), (3, 1009 * 1013)]
    close = roots(1 - Fraction(2, 10**160) - 1)  # A = x^2 - 2 10^-160
    assert [(r.b, r.d) for r in close] == [(Fraction(-1, 10**80), 2), (Fraction(1, 10**80), 2)]
    # the discriminant 2026/1009^2 is squared out in its numerator and its
    # denominator apart, so 1009 > 1000 leaves the radicand
    k = classify(pair([Fraction(-2025, 4 * 1009**2), Fraction(1, 1009), 1], [0, 1]))
    half = Fraction(1, 2018)
    assert [(r.a, r.b, r.d) for r, _ in k.a_roots] == [(-half, -half, 2026), (-half, half, 2026)]


def bz(a, b):
    return boundary_zeros(classify(pair(a, b)))


def made_spec(k_zeros=(), ak_zeros=(), k_singular=(), k=None):
    """A boundary spec with the given (point, sides) zeros of K and of A/K,
    ascending, over `k` (by default K = 1, finite everywhere)."""
    zeros = (tuple(SidedZero(p, s) for p, s in zs) for zs in (k_zeros, ak_zeros))
    return BoundarySpec(k or classify(pair([1], [])), *zeros, tuple(k_singular))


# A = x - mu_n, B = mu_n - x: K = e^-x vanishes at +inf, A/K at mu_n = 1, 2
E_MINUS_X = [bz([-m, 1], [m, -1]) for m in (1, 2)]


@pytest.mark.parametrize("case, specs, gamma, why", [
    ("a", [made_spec([(0, "left"), (1, "both")])], Fraction(1, 2),
     "n=1: K -> 0 at 0 (from below) only from the wrong side for a left endpoint"),
    ("a", [made_spec([(0, "both"), (1, "right")])], Fraction(1, 2),
     "n=1: K -> 0 at 1 (from above) only from the wrong side for a right endpoint"),
    # A = x^2 - x, B = -10x: K = |x - 1|^-10 vanishes at both infinite ends, blows up at 1
    ("a", [bz([0, -1, 1], [0, -10])], Fraction(1, 2), "n=1: K blows up at 1 inside (-inf, +inf)"),
    ("a", [bz([4, 0, -1], [0, -4]), bz([1, 0, -1], [0, -4])], Fraction(0), "n=2: need alpha_2 <= alpha_1"),
    ("a", [bz([1, 0, -1], [0, -4])], Fraction(5), "first root 5 violates alpha_1 < root < beta_1"),
    ("b", [made_spec([(POS_INF, "left")])], Fraction(0),
     "n=1: K decays only algebraically (like |x|^0) at +inf, too slowly to damp a degree-1 member"),
    ("b", E_MINUS_X, Fraction(2), "(b/k-at-beta) n=2: need alpha_2 < alpha_1"),
    ("c", E_MINUS_X, Fraction(2), "(c/k-at-beta) n=2: need alpha_2 <= alpha_1"),
    # B = 0, so A/K = A: no real root, then one
    ("d", [bz([1, 0, 1], [])], Fraction(0), "n=1: A/K vanishes at 0 point(s), need exactly 2"),
    ("d", [bz([0, 1], [])], Fraction(0), "n=1: A/K vanishes at 1 point(s), need exactly 2"),
    # A = x^2 + 1, B = 3x: A/K = (x^2 + 1)^(-1/2) vanishes only at the infinite ends
    ("d", [bz([1, 0, 1], [0, 3])], Fraction(0),
     "n=1: A/K endpoints must be finite (a zero of the next member sits on each)"),
    ("d", [made_spec(ak_zeros=[(-1, "left"), (1, "both")])], Fraction(0),
     "n=1: A/K vanishing sides incompatible with endpoints"),
    # K = |x - 1|^-1 (A = x - 1, B = -1) blows up at the right endpoint
    ("d", [made_spec(ak_zeros=[(-1, "both"), (1, "both")], k=classify(pair([-1, 1], [-1])))], Fraction(0),
     "n=1: K has no finite limit at an endpoint"),
    ("d", [made_spec(ak_zeros=[(-1, "both"), (1, "both")], k_singular=[0])], Fraction(0),
     "n=1: K blows up at 0 inside (-1, 1)"),
    ("d", [bz([-9, 0, 1], []), bz([-4, 0, 1], [])], Fraction(0), "n=2: need alpha_2 < alpha_1"),
])
def test_decide_case_failure_diagnosis(case, specs, gamma, why):
    dec = decide_case(specs, gamma)
    assert dec.case == "none"
    assert dec.diagnosis[case] == why


def test_decide_case_bc_skips_an_a_over_k_end_past_a_blow_up():
    # K vanishes at 0 and blows up at 1, so the A/K zero at 2 cannot close the
    # interval on the right; the K zero closes it on the right instead
    spec = made_spec([(0, "both")], [(-2, "both"), (2, "both")], [1])
    dec = decide_case([spec], Fraction(-1))
    assert dec.case == "b" and dec.checklist[0].detail == "b/k-at-beta"
    assert (dec.alphas, dec.betas) == ((-2,), (0,))


def golden_decisions():
    """decide_case on 1,500 seeded spec lists: per-degree families of the
    shapes each case is built on, with rising, constant and falling
    parameters, and runs of random pairs; mostly n_start = 1."""
    rng = random.Random(16)
    memo = {}

    def spec(a, b):
        key = (tuple(a), tuple(b))
        if key not in memo:
            memo[key] = bz(a, b)
        return memo[key]

    shapes = (
        lambda m, t: ([0, -m, 1], [-t * m, t]),  # A = x(x - m), B = t(x - m)
        lambda m, t: ([0, 1], [m, 1 if t > 0 else -1]),  # A = x, B = +-x + m
        lambda m, t: ([-m, 1], [t * m, -t]),  # A = x - m, B = t(m - x)
        lambda m, t: ([m * m + 1, 0, -1], [0, -2 * t]),  # K = (m^2 + 1 - x^2)^t
        lambda m, t: ([-m * m - 1, 0, 1], []),  # A/K = A = x^2 - m^2 - 1
        lambda m, t: ([m, 0, 1], [0, t]),  # no real, two rational or two surd roots
        lambda m, t: ([m * m, -2 * m, 1], [-t * m - 1, t]),  # double root m, pole
    )
    small = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2)]
    out = []
    for i in range(1500):
        length = rng.randint(1, 5)
        if i % 5 == 4:
            specs = [spec(*pair_coeffs(rng, small)) for _ in range(length)]
        else:
            shape = shapes[i % len(shapes)]
            m0, dm = rng.choice(small), rng.choice([-1, 0, 0, Fraction(1, 2), 1, 2])
            t0, dt = rng.choice([1, 2, -1, Fraction(1, 2), -3, 5]), rng.choice([0, 0, 1, -1])
            specs = [spec(*shape(m0 + dm * n, t0 + dt * n)) for n in range(length)]
        gamma = rng.choice(small + [Fraction(3), Fraction(-3), Fraction(1, 3)])
        n_start = rng.choice([1] * 8 + [0, 2])
        out.append(decide_case(specs, gamma, n_start, strict_extension=rng.random() < 0.1))
    return out


def pair_coeffs(rng, small):
    a = [rng.choice(small) for _ in range(rng.randint(0, 2))] + [rng.choice([1, -1, 2])]
    return a, [rng.choice(small) for _ in range(rng.randint(0, 2))]


def test_decide_case_golden_corpus():
    decisions = golden_decisions()
    digest = hashlib.sha256("\n".join(map(repr, decisions)).encode()).hexdigest()
    assert digest == "2b1a1a4d921b854aa52bbcf982dd8c798f25e61f966f4696782887803a3543ec"
    labels = {d.checklist[0].detail or d.case if d.ok else "none" for d in decisions}
    assert labels >= {"a", "b/k-at-alpha", "b/k-at-beta", "c/k-at-alpha", "c/k-at-beta", "d", "none"}
