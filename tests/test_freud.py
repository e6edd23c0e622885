from fractions import Fraction

import mpmath
import pytest

from ddepoly.dde import admits_dde
from ddepoly.freud import freud_recurrence_coeffs, freud_sequence, p5_invariants, recurrence_seed
from ddepoly.poly import to_mpf
from ddepoly.roots import isolate_roots


def _seed_oracle(t, prec):
    """a_1(t) by a route the library does not take: the gamma closed form at
    t = 0, the Bessel-K ratio a_1^2 = (|t|/2) (K_{3/4}(t^2/2) / K_{1/4}(t^2/2) - 1)
    for t < 0, and quadrature of the moments for t > 0."""
    with mpmath.workprec(prec + 32):
        tv = to_mpf(t, prec + 32)
        if tv == 0:
            return mpmath.sqrt(mpmath.gamma(mpmath.mpf(3) / 4) / mpmath.gamma(mpmath.mpf(1) / 4))
        if tv < 0:
            z = tv * tv / 2
            return mpmath.sqrt(-tv / 2 * (mpmath.besselk(0.75, z) / mpmath.besselk(0.25, z) - 1))

        def w(x):
            return mpmath.exp(-(x**4) + 2 * tv * x * x)

        return mpmath.sqrt(mpmath.quad(lambda x: x * x * w(x), [0, mpmath.inf]) / mpmath.quad(w, [0, mpmath.inf]))


@pytest.mark.parametrize(
    "t, prec",
    [(t, prec) for prec in (256, 512) for t in (0, -3, -1, Fraction(-1, 2), Fraction(-1, 10**30))]
    + [(t, 256) for t in (Fraction(3, 10), 1, 3)]
    # both sides of the switch from the Kummer sums to pcfd at t^2 = 64
    + [(t, prec) for prec in (256, 512) for t in (-4, -7, -15, -17, -21, -23, -30)],
    ids=str,
)
def test_seed_against_independent_routes(t, prec):
    a1 = recurrence_seed(t, prec)
    ref = _seed_oracle(t, prec)
    assert abs(a1 - ref) / ref < mpmath.mpf(2) ** -(prec - 8)


def _pcfd_seed(t, prec):
    """a_1 = sqrt(D_{-3/2}(z) / (2 sqrt(2) D_{-1/2}(z))), z = -sqrt(2) t, by `mpmath.pcfd`
    at every t, 32 bits above prec and rounded to prec."""
    with mpmath.workprec(prec + 32):
        z = -mpmath.sqrt(2) * to_mpf(t, prec + 32)
        a1 = mpmath.sqrt(mpmath.pcfd(-1.5, z) / (2 * mpmath.sqrt(2) * mpmath.pcfd(-0.5, z)))
    with mpmath.workprec(prec):
        return +a1


@pytest.mark.parametrize("prec", [256, 512])
def test_seed_equals_the_pcfd_ratio_bit_for_bit(prec):
    # t = -79/10 and -23/3 are not dyadic and their terms cancel by about 90 and 85 bits, so
    # a t^2 rounded once, outside the sum's raised precision, shows there
    ts = list(range(-25, 11)) + [Fraction(-1, 3), Fraction(3, 10), Fraction(-79, 10), Fraction(-23, 3), Fraction(63, 8)]
    assert [t for t in ts if recurrence_seed(t, prec) != _pcfd_seed(t, prec)] == []


def test_seed_asymptotics():
    # the weight concentrates at x^2 = t for t -> +inf; for t -> -inf it is nearly the
    # Gaussian exp(-2|t| x^2), whose variance is 1/(4|t|)
    t = 10**6
    with mpmath.workprec(256):
        assert abs(recurrence_seed(t) ** 2 / t - 1) < 1e-11
        assert abs(4 * t * recurrence_seed(-t) ** 2 - 1) < 1e-11


def test_seed_value_at_zero():
    a1 = recurrence_seed(0, 256)
    with mpmath.workprec(300):
        ref = mpmath.gamma(mpmath.mpf(3) / 4) / (2 ** mpmath.mpf("0.25") * mpmath.sqrt(mpmath.pi))
        assert abs(a1 - ref) / ref < mpmath.mpf(10) ** -70
    assert mpmath.nstr(a1, 15) == "0.581368317019119"


def test_coefficients_start_at_zero():
    data = freud_recurrence_coeffs(0, 6)
    assert data.a[0] == 0
    assert all(a > 0 for a in data.a[1:])


def test_second_coefficient_identity():
    data = freud_recurrence_coeffs(0, 2)
    with mpmath.workprec(256):
        a1 = data.a[1]
        expect = mpmath.sqrt(1 / (4 * a1 * a1) - a1 * a1)
        assert abs(data.a[2] - expect) < mpmath.mpf(10) ** -70


def test_string_residuals_tiny():
    data = freud_recurrence_coeffs(0, 8, 256)
    assert max(data.residuals) < 1e-30


def test_iteration_caps():
    with pytest.raises(ValueError):
        freud_recurrence_coeffs(0, 33)
    with pytest.raises(ValueError):
        freud_recurrence_coeffs(0, 6, precision=64)


def test_seed_matches_moment_integrals():
    # independent oracle: a_1^2 is the ratio of the weight's second to
    # zeroth moment, integrated directly at modest precision
    for t in (Fraction(1, 2), Fraction(-1, 2), Fraction(-1)):
        a1 = recurrence_seed(t, 192)
        with mpmath.workdps(35):
            tv = mpmath.mpf(t.numerator) / t.denominator

            def w(x):
                return mpmath.exp(-(x**4) + 2 * tv * x * x)

            m0 = mpmath.quad(w, [0, mpmath.inf])
            m2 = mpmath.quad(lambda x: x * x * w(x), [0, mpmath.inf])
            ref = mpmath.sqrt(m2 / m0)
        assert abs(a1 - ref) / ref < 1e-25


def test_seed_continuity_near_zero():
    a0 = recurrence_seed(0, 192)
    for t in (Fraction(1, 10**6), Fraction(-1, 10**6)):
        assert abs(recurrence_seed(t, 192) - a0) < 1e-5


def test_nonzero_t_seed_and_run():
    data = freud_recurrence_coeffs(Fraction(1, 2), 6, 192)
    assert all(a > 0 for a in data.a[1:])
    assert max(data.residuals) < 1e-25
    data = freud_recurrence_coeffs(Fraction(-1, 2), 4, 192)
    assert all(a > 0 for a in data.a[1:])


def test_sequence_parity():
    data = freud_recurrence_coeffs(0, 8)
    seq = freud_sequence(data, 8)
    for n, p in enumerate(seq.polys):
        for i, c in enumerate(p.coeffs):
            if (i - n) % 2 != 0:
                assert c == 0


def test_p5_closed_form_coefficients():
    data = freud_recurrence_coeffs(0, 6)
    seq = freud_sequence(data, 6)
    alpha, beta, zp, zm = p5_invariants(data)
    with mpmath.workprec(256):
        prod = data.a[1] * data.a[2] * data.a[3] * data.a[4] * data.a[5]
        p5 = seq[5]
        assert abs(p5.coeffs[5] - 1 / prod) < mpmath.mpf(10) ** -65
        assert abs(p5.coeffs[3] + alpha / prod) < mpmath.mpf(10) ** -65
        assert abs(p5.coeffs[1] - beta / prod) < mpmath.mpf(10) ** -65
        assert p5.coeffs[0] == 0 and p5.coeffs[2] == 0 and p5.coeffs[4] == 0


def test_p5_zeros_match_closed_form():
    data = freud_recurrence_coeffs(0, 6)
    seq = freud_sequence(data, 6)
    _, _, zp, zm = p5_invariants(data)
    with mpmath.workprec(256):
        mids = isolate_roots(seq[5], mpmath.mpf(2) ** -136).midpoints(256)
        expect = sorted([-mpmath.sqrt(zp), -mpmath.sqrt(zm), mpmath.mpf(0), mpmath.sqrt(zm), mpmath.sqrt(zp)])
        for m, e in zip(mids, expect):
            assert abs(m - e) <= (1 + abs(e)) * mpmath.mpf(10) ** -40


def test_quintic_member_rejects_polynomial_coefficients():
    data = freud_recurrence_coeffs(0, 6)
    seq = freud_sequence(data, 6)
    res = admits_dde(list(seq.polys), tolerance=1e-12)
    assert res.numeric
    e = res.entry(5)
    assert e.verdict == "fails"
    assert e.residual > 1e-6  # a million times the tolerance
    for n in range(5):
        assert res.entry(n).verdict == "admits"


def test_sequence_needs_enough_coefficients():
    data = freud_recurrence_coeffs(0, 3)
    with pytest.raises(ValueError):
        freud_sequence(data, 6)
