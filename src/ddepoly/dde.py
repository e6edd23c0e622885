"""The recurrence engine: P_{n+1} = A_n P_n' + B_n P_n with deg A <= 2, deg B <= 1.

`generate` runs the recurrence from P_0 = 1.  `admits_dde` goes the other
way: given an arbitrary polynomial table it decides, degree by degree,
whether coefficient pairs of the bounded degrees exist, recovering them
when they do.  The decision is exact linear algebra on remainder
coefficients: a quadratic A must satisfy P_{n+1} - A P_n' == 0 modulo P_n,
which is a linear system in A's three coefficients; B then falls out by
exact division.  This avoids any arithmetic with the roots of P_n while
being equivalent to interpolating A through (x_k, P_{n+1}(x_k)/P_n'(x_k))
at the simple zeros x_k of P_n.  The system is built from integer
pseudo-remainders: of the primitive integer vectors on rational input, of
the integer vectors of the dyadic values the mpf coefficients hold on
float input.  On rational input fraction-free elimination runs on its (at
most three) pivot rows, and every other row's residual is read off
Sylvester's identity.  P_n, or its even part when it has parity, is
proved squarefree by a gcd modulo a prime below 2^30.  No `Fraction`
enters until A and B are scaled back, one per coefficient.  On float
input the least-squares solution comes from the integer normal equations
by Cramer's rule; the relative residual, A and B are exact rationals,
each rounded once.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

import mpmath
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .poly import (
    DEFAULT_FLOAT_PREC, FLOAT, RATIONAL, KindMismatchError, Poly, _dx, _dyadic, _over_lcm, _pquo, _prem, _quo,
    _squarefree, format_poly, to_mpf,
)
from .roots import real_simple_zeros


class NonSimpleZerosError(ValueError):
    """A polynomial required to have simple zeros has a repeated root."""


@dataclass(frozen=True)
class CoefficientPair:
    """One step's coefficients: A of degree <= 2, B of degree <= 1."""

    A: Poly
    B: Poly

    def __post_init__(self):
        if self.A.degree > 2:
            raise ValueError(f"deg A = {self.A.degree} exceeds 2")
        if self.B.degree > 1:
            raise ValueError(f"deg B = {self.B.degree} exceeds 1")
        if not self.A.is_zero and not self.B.is_zero and self.A.kind != self.B.kind:
            raise KindMismatchError("A and B must share a scalar kind")

    @property
    def kind(self):
        return self.A.kind if not self.A.is_zero else self.B.kind

    def __repr__(self):
        return f"(A={format_poly(self.A)}, B={format_poly(self.B)})"


class CoefficientTable:
    """Explicit coefficient source: pair(n) reads a prebuilt list."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def pair(self, n):
        if not 0 <= n < len(self.pairs):
            raise IndexError(f"coefficient table covers 0..{len(self.pairs) - 1}, asked for {n}")
        return self.pairs[n]

    def __len__(self):
        return len(self.pairs)


class CoefficientRule:
    """Coefficient source from a callable n -> CoefficientPair."""

    def __init__(self, fn, name=""):
        self.fn = fn
        self.name = name

    def pair(self, n):
        return self.fn(n)


@dataclass(frozen=True)
class PolySequence:
    """P_0..P_N with P_0 = 1; degree anomalies are recorded, not fatal."""

    polys: tuple
    collapsed: tuple = ()  # indices m where deg P_m != m
    truncated_at: int | None = None
    diagnostic: str | None = None

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    @property
    def degrees(self):
        return tuple(p.degree for p in self.polys)


def step(P, c):
    """One recurrence application: A * P' + B * P.  On rational data it is
    one convolution of the integer vectors of P, A and B over their lcm
    denominators, with one Fraction per output coefficient."""
    if P.kind == FLOAT or c.kind == FLOAT:
        prec = max(P.prec or DEFAULT_FLOAT_PREC, c.A.prec or c.B.prec or DEFAULT_FLOAT_PREC)
        with mpmath.workprec(prec + 16):
            return c.A * P.derivative() + c.B * P
    if c.A.kind == FLOAT or c.B.kind == FLOAT:  # a float zero beside rational data
        raise KindMismatchError(f"cannot combine {FLOAT} and {RATIONAL} polynomials")
    (p, dp), (a, da), (b, db) = (_over_lcm(q.coeffs) for q in (P, c.A, c.B))
    den = lcm(da, db)  # A P' + B P = (a (den/da) p' + b (den/db) p) / (den dp)
    out = [0] * (len(p) + 1)
    for u, v, scale in ((_dx(p), a, den // da), (p, b, den // db)):
        for j, y in enumerate(v):
            y *= scale
            for i, x in enumerate(u):
                out[i + j] += x * y
    den *= dp
    return Poly([Fraction(x, den) for x in out], RATIONAL)


def generate(src, N):
    """Run the recurrence from P_0 = 1 through P_N.

    Degree collapses (deg P_m != m) are flagged and generation continues;
    a zero polynomial truncates the sequence with a diagnostic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    first = src.pair(0)
    kind = first.kind
    polys = [Poly.one(kind, first.A.prec if kind == FLOAT else None)]
    collapsed = []
    truncated_at = None
    diagnostic = None
    for n in range(N):
        nxt = step(polys[n], src.pair(n))
        if nxt.is_zero:
            truncated_at = n + 1
            diagnostic = f"P_{n + 1} is the zero polynomial; sequence truncated"
            break
        if nxt.degree != n + 1:
            collapsed.append(n + 1)
        polys.append(nxt)
    return PolySequence(tuple(polys), tuple(collapsed), truncated_at, diagnostic)


@dataclass(frozen=True)
class AdmissibilityEntry:
    n: int
    verdict: str  # "admits" | "fails" | "skipped-degenerate"
    pair: CoefficientPair | None = None
    unique: bool | None = None
    residual: float | None = None
    witness: str | None = None


@dataclass(frozen=True)
class AdmissibilityResult:
    entries: tuple
    numeric: bool = False

    @property
    def all_admit(self):
        return all(e.verdict == "admits" for e in self.entries)

    def entry(self, n):
        for e in self.entries:
            if e.n == n:
                return e
        raise KeyError(n)


def admits_dde(seq, tolerance=1e-12):
    """Decide, for each n, whether seq continues by some A_n P_n' + B_n P_n.

    seq is a list of Poly with seq[0] == 1.  Entries n with deg seq[n] != n
    are skipped as degenerate, as are n >= 2 where a rational seq[n] has
    repeated roots (the decision procedure needs simple zeros); a constant
    gcd(P_n, P_n') modulo a prime below 2^30, taken on the even part of a
    P_n with parity, proves P_n squarefree, and only a member it cannot
    certify builds the exact integer chain.  Float entries are not skipped.
    Rational input is decided exactly, on integers (`_admit_exact`).  Float
    input is decided by exact least squares on the dyadic values the mpf
    coefficients hold (`_admit_float`): the relative residual is rounded
    once to a float and held against `tolerance`, A and B are rounded once
    to the members' precision, and the result is tagged numeric.
    """
    polys = [p if isinstance(p, Poly) else Poly.rational(p) for p in seq]
    if len(polys) < 2:
        raise ValueError("need at least P_0 and P_1")
    if polys[0].degree != 0 or polys[0].coeffs[0] != 1:
        raise ValueError("seq[0] must be the constant polynomial 1")
    prec = max((p.prec or DEFAULT_FLOAT_PREC for p in polys if p.kind == FLOAT), default=None)
    ints = [p.primitive_int_coeffs() if p.kind == RATIONAL else _dyadic(p) for p in polys]
    with mpmath.workprec(prec + 32) if prec else nullcontext():
        entries = tuple(_admit_at(polys, ints, n, tolerance) for n in range(len(polys) - 1))
    return AdmissibilityResult(entries, numeric=prec is not None)


def _admit_at(polys, ints, n, tolerance):
    Pn, Pn1 = polys[n], polys[n + 1]
    if Pn.degree != n:
        return AdmissibilityEntry(n, "skipped-degenerate", witness=f"deg P_{n} = {Pn.degree} != {n}")
    if n == 0:
        if Pn1.degree > 1:
            return AdmissibilityEntry(n, "skipped-degenerate", witness=f"deg P_1 = {Pn1.degree} > 1")
        zero = Poly.zero(Pn1.kind, Pn1.prec)
        return AdmissibilityEntry(n, "admits", CoefficientPair(zero, Pn1), unique=False, residual=0.0)
    if n == 1:
        if Pn1.degree > 2:
            return AdmissibilityEntry(n, "skipped-degenerate", witness=f"deg P_2 = {Pn1.degree} > 2")
        # B_1 is a free choice; take B_1 = 0, A_1 = P_2 / P_1'
        c = Pn.derivative().coeffs[0]
        A = Pn1.scale(1 / c)
        zero = Poly.zero(Pn.kind, Pn.prec)
        return AdmissibilityEntry(n, "admits", CoefficientPair(A, zero), unique=False, residual=0.0)
    if Pn.kind != Pn1.kind:
        raise KindMismatchError(f"cannot combine {Pn.kind} and {Pn1.kind} polynomials")
    if Pn.kind == RATIONAL:
        return _admit_exact(Pn, Pn1, ints[n], ints[n + 1], n)
    return _admit_float(Pn, Pn1, ints[n], ints[n + 1], n, tolerance)


def _columns(p, q, n):
    """The integer system for P_n = u p and P_(n+1) = v q, with p of degree
    n: columns s_j (x^j p' mod p), j = 0, 1, 2, and the right side
    s (q mod p), integer pseudo-remainders with s_j and s powers of lead(p).
    A = sum z_j x^j solves A P_n' = P_(n+1) mod P_n where the integer
    system has solution (v s_j / (u s)) z_j.  Returns p', the columns, the
    right side (n entries each), the scales s_j and s."""
    dp = _dx(p)
    c1 = [a - n * b for a, b in zip([0] + dp, p)][:n]  # x p' - n p = x p' mod p
    rhs = _prem(q, p)
    return dp, (dp, c1, _prem([0] + c1, p)), rhs + [0] * (n - len(rhs)), (1, 1, p[-1]), p[-1] ** max(len(q) - n, 0)


def _admit_exact(Pn, Pn1, p, q, n):
    """The rational decision on the primitive integer vectors p and q of
    P_n and P_(n+1) (`_columns`).  The residual of an equation is v / s
    times the integer one.  A and B are scaled back on integers, one
    `Fraction` per coefficient."""
    if not _squarefree(p):
        return AdmissibilityEntry(n, "skipped-degenerate", witness=f"P_{n} has repeated roots")
    u, v = Pn.lead / p[-1], Pn1.lead / q[-1] if q else Fraction(1)
    dp, cols, rhs, scales, s = _columns(p, q, n)
    pivots, d, dz, bad = _eliminate(zip(*cols, rhs), 3)
    if bad:
        return AdmissibilityEntry(n, "fails", witness=f"inconsistent equation 0 = {v * bad / (s * d)}")
    # z_j s_j / s = N_j / D in lowest terms, so A = v / (D u) N and
    # B = (P_(n+1) - A P_n') / P_n = v / (D u) * (D q - sum N_j x^j p') / p
    N = [z * c for z, c in zip(dz, scales)]
    g = gcd(s * d, *N)
    D, N, w = s * d // g, [c // g for c in N], v / u
    A = Poly.rational([Fraction(w.numerator * c, w.denominator * D) for c in N])
    rest = [D * c for c in q] + [0] * (n + 2 - len(q))
    for j, c in enumerate(N):
        for i, b in enumerate(dp):
            rest[i + j] -= c * b
    B = Poly.rational([Fraction(w.numerator * c, w.denominator * D) for c in _quo(rest, p)])
    if B.degree > 1:
        return AdmissibilityEntry(n, "fails", witness=f"forced deg B = {B.degree} > 1")
    return AdmissibilityEntry(n, "admits", CoefficientPair(A, B), unique=len(pivots) == 3, residual=0.0)


def _eliminate(rows, unknowns):
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 1968) on integer rows
    (coefficients, right side), run on the pivot rows only.  Pivots are
    picked as plain elimination picks them: in each column, the first row
    from the next pivot position down that is nonzero there, with the same
    swaps.  No row is updated in place: `current` gives a row as Bareiss
    would hold it after the steps so far, d a - sum_k a[pivots[k]] t_k, with
    d the last pivot and t_k the pivot rows as eliminated (Sylvester's
    identity).  Pivot row k reads d z[pivots[k]] + (free terms) = its right
    side, so with free unknowns 0 the right sides are d z, and another row's
    right side is d times its equation's residual there.  Returns the pivot
    columns, d, d z (0 at a free unknown) and the first nonzero right side
    among the other rows, in their order after the swaps, or 0."""
    rows, tops, pivots, d = list(rows), [], [], 1

    def current(row):
        out = [d * x for x in row]
        for p, t in zip(pivots, tops):
            out = [x - row[p] * y for x, y in zip(out, t)]
        return out

    for col in range(unknowns):
        r = len(pivots)
        for i in range(r, len(rows)):
            top = current(rows[i])
            if top[col]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pv = top[col]
        tops = [[(pv * x - t[col] * y) // d for x, y in zip(t, top)] for t in tops] + [top]
        pivots.append(col)
        d = pv
        if len(pivots) == len(rows):
            break
    dz = [0] * unknowns
    for p, t in zip(pivots, tops):
        dz[p] = t[-1]
    residuals = (d * row[-1] - sum(map(mul, dz, row)) for row in rows[len(pivots):])  # current(row)[-1], in one pass
    return pivots, d, dz, next((e for e in residuals if e), 0)


def _admit_float(Pn, Pn1, image_n, image_n1, n, tolerance):
    """The float decision: exact least squares on the dyadic values P_n and
    P_(n+1) hold, P_n = 2^eu p and P_(n+1) = 2^ev q (`_dyadic`), no
    squarefree skip.  The normal equations C^T C w = C^T r of `_columns`'
    integer system (its first two columns at n = 2, where a solution with
    no x^2 term always exists) are solved on integers (`_normal_solve`).
    The relative residual |M z - b| / max(|b|, 1) of the system in P_n and
    P_(n+1) themselves, where M z - b = 2^ev / s (C w - r), and A and B are
    exact rationals, each rounded once: the residual to a float, A and B to
    the members' precision."""
    (p, eu), (q, ev) = image_n, image_n1
    prec = max(Pn.prec or DEFAULT_FLOAT_PREC, Pn1.prec or DEFAULT_FLOAT_PREC)
    dp, cols, r, scales, s = _columns(p, q, n)
    d, dz, h = _normal_solve(cols[:2] if n == 2 else cols, r)
    if not d:
        return AdmissibilityEntry(n, "fails", witness="least squares failed: the normal equations are singular")
    # r - C w is orthogonal to C, so |C w - r|^2 = |r|^2 - h.w = f / d; with
    # |M z - b| = 2^ev / |s| |C w - r| and |b| = 2^ev / |s| |r|,
    # rel^2 = f / d * min(1 / |r|^2, 2^(2 ev) / s^2)
    r2, up, down = sum(y * y for y in r), max(2 * ev, 0), max(-2 * ev, 0)
    f = d * r2 - sum(map(mul, h, dz))
    if r2 << up < s * s << down:  # |b| < 1
        rel = _sqrt_ratio(f << up, d * s * s << down)
    else:
        rel = _sqrt_ratio(f, d * r2)
    if rel > tolerance:
        return AdmissibilityEntry(
            n, "fails", residual=rel,
            witness=f"least-squares relative residual {rel:.3e} exceeds tolerance {tolerance:.1e}",
        )
    # A = 2^(ev - eu) / (s d) sum N_j x^j with N_j = s_j (d z_j), and
    # B = (P_(n+1) - A P_n') / P_n = 2^(ev - eu) / (s d) (s d q - sum N_j x^j p') / p
    # over Q.  That quotient has m terms and reads only the entries from
    # t = n + 1 - m of both vectors; lead(p)^m times it is `_pquo`'s.
    N, D = [z * c for z, c in zip(dz, scales)], s * d
    L = max(len(q), n + 2)
    t = max(2 * n + 1 - L, 0)
    top = [D * (q[k] if k < len(q) else 0) - sum(c * dp[k - j] for j, c in enumerate(N) if 0 <= k - j < n)
           for k in range(t, L)]
    quo, m = _pquo(top, p[t:])
    A = Poly([_rounded(c, ev - eu, D, prec) for c in N], FLOAT, prec)
    B = Poly([_rounded(c, ev - eu, D * p[-1] ** m, prec) for c in quo], FLOAT, prec)
    if B.degree > 1:
        return AdmissibilityEntry(n, "fails", residual=rel, witness=f"forced deg B = {B.degree} > 1")
    return AdmissibilityEntry(n, "admits", CoefficientPair(A, B), unique=(n >= 3), residual=rel)


def _normal_solve(cols, r):
    """Cramer's rule on the normal equations C^T C w = C^T r of two or
    three integer columns: (det, det w, C^T r), all integers.  det > 0
    unless the columns are dependent, as C^T C is a Gram matrix."""
    h = [sum(map(mul, c, r)) for c in cols]
    gram = [[sum(map(mul, x, y)) if j >= i else 0 for j, y in enumerate(cols)] for i, x in enumerate(cols)]
    if len(cols) == 2:
        (a, b), (_, e) = gram
        return a * e - b * b, [e * h[0] - b * h[1], a * h[1] - b * h[0]], h
    (a, b, c), (_, e, f), (_, _, i) = gram
    u, v, w = e * i - f * f, c * f - b * i, b * f - c * e  # the adjugate, symmetric
    adj = ((u, v, w), (v, a * i - c * c, b * c - a * f), (w, b * c - a * f, a * e - b * b))
    return a * u + b * v + c * w, [sum(map(mul, row, h)) for row in adj], h


def _sqrt_ratio(a, b):
    """sqrt(a / b) rounded once to a float, for integers a >= 0 and b > 0:
    m = floor(2^k sqrt(a / b)) with at least 64 bits, and one sticky bit
    when it is inexact, so no float square or quotient underflows."""
    if not a:
        return 0.0
    k = max(0, (b.bit_length() - a.bit_length() + 130) // 2)
    m = isqrt((a << 2 * k) // b)
    return (2 * m + (m * m * b != a << 2 * k)) / (1 << (k + 1))


def _rounded(num, shift, den, prec):
    """num 2^shift / den as an mpf rounded once to prec bits."""
    return mpmath.mp.make_mpf(mpf_div(from_man_exp(num, shift), from_int(den), prec, round_nearest))


def sample_xy(Pn, Pn1, width):
    """Numeric samples (x_k, P_{n+1}(x_k)/P_n'(x_k)) at the zeros of P_n.

    Requires all zeros of P_n to be real and simple; the x_k are isolated
    to `width` and returned in increasing order as big floats.
    """
    prec = Pn.prec or DEFAULT_FLOAT_PREC
    chk, rs = real_simple_zeros(Pn, width)
    if not chk:
        raise NonSimpleZerosError(f"P_n must have real simple zeros: {chk.witness}")
    if rs.count == 0:
        return []
    out = []
    with mpmath.workprec(prec + 32):
        dPn = Pn.derivative()
        dscale = max(abs(to_mpf(c, prec)) for c in dPn.coeffs)
        for x in rs.midpoints(prec):
            d = to_mpf(dPn(x), prec)
            if abs(d) <= dscale * mpmath.mpf(2) ** (-prec // 2):
                raise NonSimpleZerosError(f"derivative vanishes at computed zero {mpmath.nstr(x, 12)}")
            y = to_mpf(Pn1(x), prec) / d
            out.append((x, y))
    return out
