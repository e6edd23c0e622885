"""The recurrence engine: P_{n+1} = A_n P_n' + B_n P_n with deg A <= 2, deg B <= 1.

`generate` runs the recurrence from P_0 = 1.  `admits_dde` goes the other
way: given an arbitrary polynomial table it decides, degree by degree,
whether coefficient pairs of the bounded degrees exist, recovering them
when they do.  The decision is exact linear algebra on remainder
coefficients: a quadratic A must satisfy P_{n+1} - A P_n' == 0 modulo P_n,
which is a linear system in A's three coefficients; B then falls out by
exact division.  This avoids any arithmetic with the roots of P_n while
being equivalent to interpolating A through (x_k, P_{n+1}(x_k)/P_n'(x_k))
at the simple zeros x_k of P_n.  On rational input the system is built
from integer pseudo-remainders of primitive integer vectors.  Fraction-free
elimination runs on its (at most three) pivot rows, and every other row's
residual is read off Sylvester's identity.  P_n, or its even part when it
has parity, is proved squarefree by a gcd modulo a prime below 2^30.  No
`Fraction` enters until A and B are scaled back, one per coefficient.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import mpmath

from .poly import (
    DEFAULT_FLOAT_PREC, FLOAT, RATIONAL, KindMismatchError, Poly, _dx, _over_lcm, _prem, _quo, _squarefree, format_poly,
    to_mpf,
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
    are skipped as degenerate, as are n >= 2 where seq[n] has repeated
    roots (the decision procedure needs simple zeros); for rational input
    a constant gcd(P_n, P_n') modulo a prime below 2^30, taken on the even
    part of a P_n with parity, proves P_n squarefree, and only a member it
    cannot certify builds the exact integer chain.
    Rational input is decided exactly, on integers (`_admit_exact`); float
    input is decided by least squares against `tolerance` (relative) and
    the result is tagged numeric.
    """
    polys = [p if isinstance(p, Poly) else Poly.rational(p) for p in seq]
    if len(polys) < 2:
        raise ValueError("need at least P_0 and P_1")
    if polys[0].degree != 0 or polys[0].coeffs[0] != 1:
        raise ValueError("seq[0] must be the constant polynomial 1")
    prec = max((p.prec or DEFAULT_FLOAT_PREC for p in polys if p.kind == FLOAT), default=None)
    ints = [p.primitive_int_coeffs() if p.kind == RATIONAL else None for p in polys]
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
    if ints[n] is not None and ints[n + 1] is not None:
        return _admit_exact(Pn, Pn1, ints[n], ints[n + 1], n)
    dPn = Pn.derivative()
    cols = []
    for j in range(3):
        xj = Poly.floating([0] * j + [1], Pn.prec or DEFAULT_FLOAT_PREC)
        cols.append((xj * dPn) % Pn)
    return _admit_at_float(Pn, Pn1, dPn, cols, Pn1 % Pn, n, tolerance)


def _admit_exact(Pn, Pn1, p, q, n):
    """The rational decision on integer vectors.  With P_n = u p and
    P_(n+1) = v q for the primitive p and q given, column j of the system is
    s_j (x^j p' mod p) and its right side s (q mod p), integer
    pseudo-remainders with s_j and s powers of lead(p).  Its solution z
    gives A's coefficients (v s_j / (u s)) z_j, and the residual of an
    equation is v / s times the integer one.  A and B are scaled back on
    integers, one `Fraction` per coefficient."""
    if not _squarefree(p):
        return AdmissibilityEntry(n, "skipped-degenerate", witness=f"P_{n} has repeated roots")
    u, v = Pn.lead / p[-1], Pn1.lead / q[-1] if q else Fraction(1)
    dp = _dx(p)
    c1 = [a - n * b for a, b in zip([0] + dp, p)][:n]  # x p' - n p = x p' mod p
    scales, s = (1, 1, p[-1]), p[-1] ** max(len(q) - n, 0)
    rhs = _prem(q, p)
    pivots, d, dz, bad = _eliminate(zip(dp, c1, _prem([0] + c1, p), rhs + [0] * (n - len(rhs))), 3)
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


def _admit_at_float(Pn, Pn1, dPn, cols, rhs_poly, n, tolerance):
    prec = Pn.prec or DEFAULT_FLOAT_PREC
    unknowns = 2 if n == 2 else 3  # at n=2 a solution with zero x^2 term always exists
    M = mpmath.matrix(n, unknowns)
    for i in range(n):
        for j in range(unknowns):
            M[i, j] = cols[j].coeff(i)
    b = mpmath.matrix([rhs_poly.coeff(i) for i in range(n)])
    # normal equations: M has full column rank when P_n is squarefree, and
    # the squared conditioning is harmless at extended precision
    try:
        G = M.T * M
        sol = mpmath.lu_solve(G, M.T * b)
        resnorm = mpmath.norm(M * sol - b)
    except (ValueError, ZeroDivisionError) as exc:
        return AdmissibilityEntry(n, "fails", witness=f"least squares failed: {exc}")
    scale = max(mpmath.norm(b), mpmath.mpf(1))
    rel = float(resnorm / scale)
    if rel > tolerance:
        return AdmissibilityEntry(
            n, "fails", residual=rel,
            witness=f"least-squares relative residual {rel:.3e} exceeds tolerance {tolerance:.1e}",
        )
    A = Poly.floating([sol[j] for j in range(unknowns)], prec)
    B, _ = (Pn1 - A * dPn).divrem(Pn)
    if B.degree > 1:
        return AdmissibilityEntry(n, "fails", residual=rel, witness=f"forced deg B = {B.degree} > 1")
    return AdmissibilityEntry(n, "admits", CoefficientPair(A, B), unique=(n >= 3), residual=rel)


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
