"""Recurrence data for the quartic exponential weight and its orthonormal
polynomials.

The weight exp(-x^4 + 2tx^2 - t^2/4) (suitably normalized) produces a
three-term recurrence x P_n = a_{n+1} P_{n+1} + a_n P_{n-1} whose
coefficients obey the nonlinear string relation

    n = 4 a_n^2 (a_{n+1}^2 + a_n^2 + a_{n-1}^2 - t),   a_0 = 0.

Forward iteration of that relation is unstable (roughly one digit lost
per step), so everything here runs in mpmath at a caller-chosen precision
(>= 128 bits, default 256) with a residual monitor that aborts before
silent corruption.  The seed a_1 dominates the achievable accuracy.  It
is the square root of the weight's second-to-zeroth moment ratio; with
u = x^2 both moments are parabolic-cylinder integrals (DLMF 12.5.1), so
a_1^2 is a ratio D_{-3/2} / D_{-1/2}.  For t^2 < 64 each D is summed as
its even and odd Kummer functions 1F1 (DLMF 12.2, 12.4, 12.7), a series
in t^2; from t^2 = 64 on, `mpmath.pcfd` evaluates it (see
`recurrence_seed` for why).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .dde import PolySequence
from .poly import Poly, to_mpf


class PrecisionError(ArithmeticError):
    """Iteration aborted: precision exhausted or data outside its domain."""


def recurrence_seed(t, prec=256):
    """a_1(t) = sqrt(m_2 / m_0), where m_k = int x^k exp(-x^4 + 2tx^2) dx over R.

    With u = x^2 both moments are parabolic-cylinder integrals
    (DLMF 12.5.1): m_0 = 2^(-1/4) Gamma(1/2) U(0, z) e^(z^2/4) and
    m_2 = 2^(-3/4) Gamma(3/2) U(1, z) e^(z^2/4) with z = -sqrt(2) t, so

        a_1^2 = D_{-3/2}(z) / (2 sqrt(2) D_{-1/2}(z)) = F(-3/2) / (4 F(-1/2)),

    where D_nu(-sqrt(2) t) = 2^(nu/2) sqrt(pi) e^(-t^2/2) F(nu) splits into
    its even and odd Kummer functions (DLMF 12.2.6-7, 12.4.1, 12.7.12-13):

        F(nu) = 1F1(-nu/2; 1/2; t^2) / Gamma((1 - nu)/2)
                + 2t 1F1((1 - nu)/2; 3/2; t^2) / Gamma(-nu/2).

    At t = 0, a_1^2 = Gamma(3/4) / Gamma(1/4).  This sum serves t^2 < 64.
    From t^2 = 64 on, mpmath's 1F1 first tries an asymptotic series that
    fails until t^2 nears the precision, so the sum is no faster than
    `mpmath.pcfd`; once t^2 is large, pcfd's own asymptotic series
    converges at once, while the sum does not (for t < 0 its two terms
    cancel by about 1.44 t^2 bits).  So pcfd takes over at t^2 = 64.
    Either route works 32 bits above `prec` and rounds to `prec`.
    """
    with mpmath.workprec(prec + 32):
        tv = to_mpf(t, prec + 32)
        if tv * tv < 64:
            a1 = mpmath.sqrt(_kummer_sum(-1.5, tv) / (4 * _kummer_sum(-0.5, tv)))
        else:
            z = -mpmath.sqrt(2) * tv
            a1 = mpmath.sqrt(mpmath.pcfd(-1.5, z) / (2 * mpmath.sqrt(2) * mpmath.pcfd(-0.5, z)))
    with mpmath.workprec(prec):
        return +a1


def _kummer_sum(nu, t):
    """F(nu) of `recurrence_seed`, by one `mpmath.hypercomb`, which raises its
    working precision to cover the terms' cancellation; t^2 is formed at
    that precision, so both terms see the same argument."""

    def terms():
        even = ([], [], [], [(1 - nu) / 2], [-nu / 2], [0.5], t * t)
        odd = ([2 * t], [1], [], [-nu / 2], [(1 - nu) / 2], [1.5], t * t)
        return (even, odd) if t else (even,)

    return mpmath.hypercomb(terms, [])


@dataclass(frozen=True)
class FreudData:
    """Recurrence coefficients a_0..a_N with their string-relation residuals."""

    t: object
    precision: int
    a: tuple
    residuals: tuple

    def __len__(self):
        return len(self.a)


def freud_recurrence_coeffs(t, N, precision=256):
    """a_0..a_N from the string relation, with residual monitoring.

    Forward iteration is unstable, so N is capped at 32 and the residual
    |n - 4 a_n^2 (a_{n+1}^2 + a_n^2 + a_{n-1}^2 - t)| must stay below
    2^(-precision/2) at every step.
    """
    if N > 32:
        raise ValueError("N > 32: forward iteration of the string relation is too unstable")
    if precision < 128:
        raise ValueError("precision must be >= 128 bits")
    with mpmath.workprec(precision):
        tv = to_mpf(t, precision) if isinstance(t, Fraction) else mpmath.mpf(t)
        a = [mpmath.mpf(0), recurrence_seed(t, precision)]
        residuals = []
        tol = mpmath.mpf(2) ** (-precision // 2)
        for n in range(1, max(N, 1)):
            an, am = a[n], a[n - 1]
            sq = mpmath.mpf(n) / (4 * an * an) - an * an - am * am + tv
            if sq <= 0:
                raise PrecisionError(
                    f"a_{n + 1}^2 = {float(sq)} <= 0: precision exhausted or instability at n = {n}"
                )
            a.append(mpmath.sqrt(sq))
            r = abs(mpmath.mpf(n) - 4 * an * an * (a[n + 1] ** 2 + an**2 + am**2 - tv))
            residuals.append(r)
            if r > tol:
                raise PrecisionError(f"string-relation residual {float(r):.2e} at n = {n} exceeds {float(tol):.2e}")
        return FreudData(tv, precision, tuple(a[: N + 1]), tuple(residuals[: max(N - 1, 0)]))


def freud_sequence(data, N):
    """P_0..P_N (unit-norm convention, P_1 = x/a_1) from the three-term recurrence.

    When N >= 5 the quintic member is validated against its closed
    coefficient form in the a_n (an exact algebraic identity, so any
    violation beyond roundoff flags corrupted data).
    """
    if len(data.a) < N + 1:
        raise ValueError(f"need a_0..a_{N}, have {len(data.a) - 1}")
    prec = data.precision
    with mpmath.workprec(prec):
        polys = [Poly.floating([1], prec), Poly.floating([0, 1 / data.a[1]], prec)]
        for n in range(1, N):
            xpn = Poly.floating([0] + list(polys[n].coeffs), prec)
            nxt = (xpn - data.a[n] * polys[n - 1]).scale(1 / data.a[n + 1])
            polys.append(nxt)
        seq = PolySequence(tuple(polys))
        if N >= 5:
            bad = _p5_coefficient_residual(data, seq)
            if bad > mpmath.mpf(2) ** (-prec // 2):
                raise PrecisionError(f"quintic closed-form residual {float(bad):.2e}; data corrupted")
        return seq


def p5_invariants(data):
    """alpha, beta and the squared positive zeros zeta+- of the quintic member."""
    a = data.a
    with mpmath.workprec(data.precision):
        alpha = a[1] ** 2 + a[2] ** 2 + a[3] ** 2 + a[4] ** 2
        beta = a[1] ** 2 * a[3] ** 2 + a[1] ** 2 * a[4] ** 2 + a[2] ** 2 * a[4] ** 2
        disc = mpmath.sqrt(alpha * alpha - 4 * beta)
        zp = (alpha + disc) / 2
        zm = (alpha - disc) / 2
        return alpha, beta, zp, zm


def _p5_coefficient_residual(data, seq):
    """Max relative mismatch between P_5's coefficients and the closed form
    (x^5 - alpha x^3 + beta x) / (a_1 a_2 a_3 a_4 a_5)."""
    alpha, beta, _, _ = p5_invariants(data)
    with mpmath.workprec(data.precision):
        prod = data.a[1] * data.a[2] * data.a[3] * data.a[4] * data.a[5]
        expect = [0, beta / prod, 0, -alpha / prod, 0, 1 / prod]
        got = seq[5].coeffs
        worst = mpmath.mpf(0)
        scale = max(abs(e) for e in expect if e)
        for i in range(6):
            g = got[i] if i < len(got) else mpmath.mpf(0)
            worst = max(worst, abs(g - expect[i]) / scale)
        return worst
