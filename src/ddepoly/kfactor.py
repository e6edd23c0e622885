"""Damping-factor analysis for the recurrence P_{n+1} = A P' + B P.

With K(x) = exp(int^x B/A), the recurrence step rewrites as
P_{n+1} = (A/K) d/dx [K P].  Since A is at most quadratic and B at most
linear, B/A has an explicit partial-fraction decomposition and K a closed
form built from powers of |x - s|, exponentials of polynomials, simple
pole exponentials exp(d/(x - s)) and a bounded arctangent factor.  This
module classifies that closed form from the coefficients, enumerates
where K and A/K vanish on the extended real line (A/K read off K: at a
root of A of multiplicity m where K has exponent e and pole d, A/K has
m - e and -d), and matches the per-degree vanishing patterns against the
four endpoint configurations (a)-(d) that force zeros of the generated
polynomials to be real and simple, confined to an interval, interlacing
with the next degree, or some combination.

K is handled through |K|: all zero/limit analysis is insensitive to the
sign convention between singular points, and real powers of negative
bases never arise.

Points and exponents are exact (Fractions, or `poly.Surd`s at irrational
roots of A) and are ordered with plain `<`.  They are computed on the
integer numerators and denominators of the pair as given, with lead(A)
divided out of those integers, one Fraction per output field, and every
sign is read off integers; a surd's radicand is the product of the
squarefree parts of the discriminant's numerator and denominator.  No
A-monic pair is built on the way: `normalize` builds one only when a
classification's `pair` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod

import mpmath

from .poly import NEG_INF, POS_INF, RATIONAL, Surd, _sign, _sign_surd, as_exact, format_poly, format_scalar, is_finite
from .dde import CoefficientPair

ZERO = "zero"
FINITE = "finite"
INF = "inf"

EXTENSION_TAGS = {"B-zero", "linear-A-constant-B", "constant-A-constant-B", "irreducible-quadratic-A"}


@dataclass(frozen=True)
class LogDerivativeForm:
    """log|K| = sum e ln|x-s| + sum g ln(x^2+px+q) + c1 x + c2 x^2
                 + sum d/(x-s) + sum c * (2/sqrt(4q-p^2)) atan((2x+p)/sqrt(4q-p^2)).

    growth is the exact exponent E of the algebraic part |K| ~ |x|^E at
    both infinite ends, which decides the limit there when c1 = c2 = 0."""

    log_terms: tuple = ()
    quad_logs: tuple = ()
    lin: object = Fraction(0)
    quad: object = Fraction(0)
    poles: tuple = ()
    atans: tuple = ()
    growth: Fraction = Fraction(0)

    def exponent_at(self, s):
        e = _term_at(self.log_terms, s)
        return Fraction(0) if e is None else e

    def pole_at(self, s):
        d = _term_at(self.poles, s)
        return Fraction(0) if d is None else d

    def singular_points(self):
        return tuple(sorted({s for s, e in self.log_terms if e} | {s for s, d in self.poles if d}))


def _term_at(terms, s):
    """The coefficient of the term at the point s, or None.  A point is
    found by identity first: `classify` puts A's root objects themselves in
    the form, and `==` on surds costs a squaring."""
    for p, v in terms:
        if p is s:
            return v
    for p, v in terms:
        if p == s:
            return v
    return None


def limit_class(form, point, side=None):
    """Class of lim |K| = exp(form) approaching `point`: "zero", "finite" or "inf".

    For finite points `side` is "+" (from the right) or "-" (from the
    left); infinite points have a single natural side.
    """
    if not is_finite(point):
        if form.quad:
            return INF if form.quad > 0 else ZERO
        if form.lin:
            return INF if form.lin * point.sign > 0 else ZERO
        if form.growth > 0:
            return INF
        if form.growth < 0:
            return ZERO
        return FINITE
    below, above = _sided(_sign(form.exponent_at(point)), _sign(form.pole_at(point)))
    return above if side == "+" else below


def _sided(se, sd):
    """(Class from below, class from above) at s of |x - s|^e exp(d/(x - s)),
    from the signs of e and d: the pole decides when d != 0."""
    if sd:
        return (ZERO, INF) if sd > 0 else (INF, ZERO)
    c = ZERO if se > 0 else INF if se < 0 else FINITE
    return c, c


# the sides of a SidedZero from (class from below, class from above)
_ZERO_SIDES = {(ZERO, ZERO): "both", (ZERO, INF): "left", (INF, ZERO): "right"}


@dataclass(frozen=True)
class KClassification:
    """Closed-form shape of the damping factor for one coefficient pair.

    `source` is the pair as given; `pair` scales it so A is monic each time
    it is read.  Equality and repr are those of the normalized pair."""

    tag: str
    source: CoefficientPair = field(compare=False)
    form: LogDerivativeForm
    a_roots: tuple  # ((root, multiplicity), ...) real roots of A

    @property
    def pair(self):
        return normalize(self.source)

    @property
    def extension(self):
        return self.tag in EXTENSION_TAGS

    def exponent_at(self, s):
        return self.form.exponent_at(s)

    def a_over_k_form(self):
        """log|A/K| has log-derivative A'/A - B/A = (A' - B)/A: a second
        partial-fraction form, kept as the oracle `boundary_zeros` is tested against."""
        a, b = _monic(self.source)
        da = (a[1], (2, 1)) if len(a) == 2 else ((len(a), 1), (0, 1))  # A' of monic A: p + 2x, 1 or 0
        r = [(xn * yd - yn * xd, xd * yd) for (xn, xd), (yn, yd) in zip(da, b)]
        return _partial_fractions(a, r, self.a_roots)

    def __eq__(self, other):
        if not isinstance(other, KClassification):
            return NotImplemented
        return (self.tag, self.form, self.a_roots) == (other.tag, other.form, other.a_roots) and self.pair == other.pair

    def __repr__(self):
        return f"KClassification(tag={self.tag!r}, pair={self.pair!r}, form={self.form!r}, a_roots={self.a_roots!r})"


def normalize(c):
    """Scale the pair so A is monic; K is unchanged since it sees only B/A.
    Each rational coefficient x/lc is one Fraction of x's and lc's integers."""
    if c.A.is_zero:
        raise ValueError("A must be nonzero")
    lc = c.A.lead
    if lc == 1:
        return c
    if c.A.kind != RATIONAL:
        return CoefficientPair(c.A.monic(), c.B.scale(1 / lc))
    a, b = _monic(c)
    return CoefficientPair(c.A._wrap([Fraction(*x) for x in a] + [Fraction(1)]), c.B._wrap([Fraction(*x) for x in b]))


def _monic(c):
    """(a, b): the coefficients of A below its lead and the two of B, each
    divided by lead(A), as (num, den) integer pairs with den > 0, not reduced."""
    ln, ld = c.A.coeffs[-1].numerator, c.A.coeffs[-1].denominator
    if ln < 0:  # the sign goes to the numerators
        ln, ld = -ln, -ld
    a = [(x.numerator * ld, x.denominator * ln) for x in c.A.coeffs[:-1]]
    b = [(x.numerator * ld, x.denominator * ln) for x in c.B.coeffs]
    return a, b + [(0, 1)] * (2 - len(b))


def classify(c):
    """Identify the closed form of K from a coefficient pair.

    Requires rational coefficients.  A quadratic A with an irrational
    (positive, non-square) discriminant has two `Surd` roots, and every
    point and exponent is exact.  Shape tags from deg A, the real roots of
    A, deg B and whether B's root is a (rational) root of A.
    """
    A, B = c.A, c.B
    if A.is_zero:
        raise ValueError("A must be nonzero")
    if A.kind != RATIONAL or (not B.is_zero and B.kind != RATIONAL):
        raise ValueError("classification requires rational coefficients; bind parameters to rationals first")
    a, b = _monic(c)
    roots = _real_roots(a)
    if B.is_zero:
        tag = "B-zero"
    elif A.degree == 2 and not roots:
        tag = "irreducible-quadratic-A"
    else:
        shape = ("constant-A", "linear-A", "equal-roots" if len(roots) == 1 else "distinct-roots")[A.degree]
        if B.degree == 0:
            tag = f"{shape}-constant-B"
        elif A.degree == 0:
            tag = shape
        else:
            matches = any(isinstance(r, Fraction) and not _value_at(b, r)[0] for r, _ in roots)
            if A.degree == 1:
                tag = "linear-A-equal" if matches else "linear-A-distinct"
            else:
                tag = "B-root-matches-A-root" if matches else f"{shape}-linear-B"
    return KClassification(tag, c, _partial_fractions(a, b, roots), roots)


def _value_at(r, x):
    """(num, den) with r0 + r1 x = num/den and den > 0, for (num, den)
    pairs r = (r0, r1) and a Fraction x, not reduced."""
    (r0n, r0d), (r1n, r1d) = r
    xd = x.denominator
    return r0n * r1d * xd + r1n * x.numerator * r0d, r0d * r1d * xd


def _partial_fractions(a, r, roots):
    """Closed form of log|exp(int R/A)| by partial fractions, for monic A
    (degree <= 2) given by the (num, den) pairs `a` of its coefficients below
    the lead, with real roots `roots`, ascending, and R = r0 + r1 x given by
    the pairs r = (r0, r1).

    K is the case R = B and A/K the case R = A' - B.  The growth exponent
    at +-inf is the exact residue sum: r1 for quadratic A, R(lam) for
    linear A.  Each field is one Fraction built from the integers of A, R
    and the roots.
    """
    (r0n, r0d), (r1n, r1d) = r
    if not a:  # r0 + r1 x
        return LogDerivativeForm(lin=Fraction(r0n, r0d), quad=Fraction(r1n, 2 * r1d))
    r1 = Fraction(r1n, r1d)
    if len(a) == 1:  # r1 + R(lam)/(x - lam)
        lam = roots[0][0]
        e = Fraction(*_value_at(r, lam))
        return LogDerivativeForm(log_terms=((lam, e),) if e else (), lin=r1, growth=e)
    if not roots:  # (r1/2) A'/A + (r0 - r1 p/2)/A
        (qn, qd), (pn, pd) = a
        p, q = Fraction(pn, pd), Fraction(qn, qd)
        cc = Fraction(2 * r0n * r1d * pd - r1n * pn * r0d, 2 * r0d * r1d * pd)
        return LogDerivativeForm(
            quad_logs=((p, q, Fraction(r1n, 2 * r1d)),) if r1n else (),
            atans=((cc, p, q),) if cc else (),
            growth=r1,
        )
    if len(roots) == 1:  # r1/(x - lam) + R(lam)/(x - lam)^2
        lam = roots[0][0]
        num, den = _value_at(r, lam)
        return LogDerivativeForm(
            log_terms=((lam, r1),) if r1n else (),
            poles=((lam, Fraction(-num, den)),) if num else (),
            growth=r1,
        )
    # R(lam)/(lam - xi) / (x - lam) + R(xi)/(xi - lam) / (x - xi); at surd roots
    # a +- b sqrt(d), R/A' = (R(a) +- r1 b sqrt(d)) / (+-2b sqrt(d)) = r1/2 +- (R(a)/(2bd)) sqrt(d)
    (xi, _), (lam, _) = roots
    if isinstance(lam, Surd):
        num, den = _value_at(r, lam.a)
        half = Fraction(r1n, 2 * r1d)
        if num:
            t = Fraction(num * lam.b.denominator, 2 * den * lam.b.numerator * lam.d)
            logs = ((lam, Surd(half, t, lam.d)), (xi, Surd(half, -t, lam.d)))
        else:
            logs = ((lam, half), (xi, half))
    else:  # R(s) / (s - s') over the common denominator of R and the roots
        (r_lam, _), (r_xi, _) = _value_at(r, lam), _value_at(r, xi)
        ld, xd = lam.denominator, xi.denominator
        gap = (lam.numerator * xd - xi.numerator * ld) * r0d * r1d
        logs = ((lam, Fraction(r_lam * xd, gap)), (xi, Fraction(-r_xi * ld, gap)))
    return LogDerivativeForm(log_terms=tuple((s, e) for s, e in logs if e), growth=r1)


def _real_roots(a):
    """Real roots of monic A (degree <= 2), ascending, with multiplicities,
    from the (num, den) pairs `a` of its coefficients below the lead.

    The discriminant p^2 - 4q is num/den in lowest terms, and each of num
    and den is squared out on its own: sqrt(num/den) = kn sqrt(rn rd) / (kd rd)
    for num = kn^2 rn and den = kd^2 rd."""
    if not a:
        return ()
    if len(a) == 1:
        (qn, qd), = a
        return ((Fraction(-qn, qd), 1),)
    (qn, qd), (pn, pd) = a
    num, den = pn * pn * qd - 4 * qn * pd * pd, pd * pd * qd
    g = gcd(num, den)
    num, den = num // g, den // g
    if num < 0:
        return ()
    if num == 0:
        return ((Fraction(-pn, 2 * pd), 2),)
    kn, kd = isqrt(num), isqrt(den)
    if kn * kn == num and kd * kd == den:  # -p/2 -+ kn / (2 kd)
        return ((Fraction(-pn * kd - kn * pd, 2 * pd * kd), 1), (Fraction(-pn * kd + kn * pd, 2 * pd * kd), 1))
    (kn, rn), (kd, rd) = _square_out(num), _square_out(den)
    a, b = Fraction(-pn, 2 * pd), Fraction(kn, 2 * kd * rd)
    return ((Surd(a, -b, rn * rd), 1), (Surd(a, b, rn * rd), 1))


_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
_PRIMORIAL = prod(_SMALL_PRIMES)


def _square_out(d):
    """(k, r) with d = k^2 r: the squares of primes below 1000 taken out,
    then the cofactor free of those primes when it is itself a square."""
    k, rest, g = 1, d, gcd(d, _PRIMORIAL)  # g: the small primes dividing d, each once
    for p in _SMALL_PRIMES:
        if p > g:
            break
        if g % p == 0:
            g //= p
            while d % (p * p) == 0:
                d //= p * p
                k *= p
            while rest % p == 0:
                rest //= p
    t = isqrt(rest)
    if t > 1 and t * t == rest:
        d //= rest
        k *= t
    return k, d


@dataclass(frozen=True)
class SidedZero:
    """An extended-real point where a function's limit is 0.

    sides: "right" means the limit from above is 0 (usable as a left
    endpoint), "left" from below (usable as a right endpoint), "both"
    for two-sided zeros.  -inf carries "right", +inf carries "left".
    """

    point: object
    sides: str

    def usable_as_left(self):
        return self.sides in ("right", "both")

    def usable_as_right(self):
        return self.sides in ("left", "both")

    def __repr__(self):
        tag = {"both": "", "left": " (from below)", "right": " (from above)"}[self.sides]
        return f"{format_scalar(self.point)}{tag}"


_AT_NEG_INF, _AT_POS_INF = SidedZero(NEG_INF, "right"), SidedZero(POS_INF, "left")


@dataclass(frozen=True)
class BoundarySpec:
    """Vanishing sets of K and A/K on the extended real line for one pair,
    each in ascending order."""

    classification: KClassification
    zeros_of_k: tuple
    zeros_of_a_over_k: tuple
    k_singular: tuple  # finite points where some one-sided limit of K is infinite

    @property
    def k_zero_count(self):
        """Vanishing-point count with the two infinite ends identified, the
        count the closed-form taxonomy bounds by 2."""
        finite = sum(1 for z in self.zeros_of_k if is_finite(z.point))
        at_inf = any(not is_finite(z.point) for z in self.zeros_of_k)
        return finite + (1 if at_inf else 0)


def boundary_zeros(k):
    """Where K and A/K vanish, and where K blows up, for a classification.

    One pass over A's real roots, the finite singular points of both: as
    log|A/K| = log|A| - log|K|, A/K has exponent m - e and pole -d at a root
    of multiplicity m where K has e and d, and -quad, -lin and growth
    deg A - growth at +-inf.  Every sign is read off integers: sign e from
    e's numerator, sign(m - e) from m den - num, and a surd's by one squaring."""
    form = k.form
    zeros_of_k, zeros_of_a_over_k, k_singular = [], [], []
    for s, m in k.a_roots:
        e, pole = _term_at(form.log_terms, s), _term_at(form.poles, s)
        sd = _sign(pole.numerator) if pole is not None else 0
        # the signs of K's exponent e and of A/K's exponent m - e
        if e is None:
            se, sa = 0, 1
        elif isinstance(e, Surd):  # u + v sqrt(d) has the sign of u_num v_den + v_num u_den sqrt(d)
            un, ud, vn, vd = e.a.numerator, e.a.denominator, e.b.numerator, e.b.denominator
            se, sa = _sign_surd(un * vd, vn * ud, e.d), _sign_surd((m * ud - un) * vd, -vn * ud, e.d)
        else:
            se, sa = _sign(e.numerator), _sign(m * e.denominator - e.numerator)
        k_sides = _sided(se, sd)
        if INF in k_sides:
            k_singular.append(s)
        if k_sides in _ZERO_SIDES:
            zeros_of_k.append(SidedZero(s, _ZERO_SIDES[k_sides]))
        a_sides = _sided(sa, -sd)
        if a_sides in _ZERO_SIDES:
            zeros_of_a_over_k.append(SidedZero(s, _ZERO_SIDES[a_sides]))
    sq, sl, g = _sign(form.quad.numerator), _sign(form.lin.numerator), form.growth
    ends = ((zeros_of_k, sq, sl, _sign(g.numerator)),
            (zeros_of_a_over_k, -sq, -sl, _sign(k.source.A.degree * g.denominator - g.numerator)))
    for out, sq, sl, sg in ends:  # the first nonzero sign of quad, lin and growth decides
        lo, hi = (sq < 0, sq < 0) if sq else (sl > 0, sl < 0) if sl else (sg < 0, sg < 0)
        if lo:
            out.insert(0, _AT_NEG_INF)
        if hi:
            out.append(_AT_POS_INF)
    return BoundarySpec(k, tuple(zeros_of_k), tuple(zeros_of_a_over_k), tuple(k_singular))


@dataclass(frozen=True)
class ChecklistItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CaseDecision:
    """Which endpoint configuration applies, with hypotheses and conclusions.

    alphas/betas are indexed by n starting at n_start.  containment gives,
    per n, (alpha, beta, lo_closed, hi_closed); None when the matched case
    claims no containment.  diagnosis maps each candidate case to its
    first failed hypothesis when no case matches.
    """

    case: str  # "a" | "b" | "c" | "d" | "none"
    n_start: int = 1
    alphas: tuple = ()
    betas: tuple = ()
    checklist: tuple = ()
    interlacing: bool = False
    real_simple: bool = False
    containment: tuple | None = None
    numeric: bool = False  # the first root is a big float
    diagnosis: dict | None = None

    @property
    def ok(self):
        return self.case != "none"


def decide_case(specs, p1_root, n_start=1, strict_extension=False):
    """Match per-degree boundary specs against endpoint configurations.

    specs[i] describes the coefficient pair at n = n_start + i; p1_root is
    the single root of P_1.  Cases are tried strongest first, b and c with
    the K zero at alpha before beta; the first one whose hypotheses all
    hold is returned.
    """
    if not specs:
        raise ValueError("no boundary specs supplied")
    numeric = isinstance(p1_root, mpmath.mpf)
    if strict_extension:
        for i, s in enumerate(specs):
            if s.classification.tag == "irreducible-quadratic-A":
                why = f"n={n_start + i}: irreducible quadratic A refused (strict mode)"
                return CaseDecision("none", n_start, numeric=numeric, diagnosis={"all": why})
    diagnosis = {}
    for case, ak_lo, ak_hi in _PATTERNS:
        dec = _match(case, ak_lo, ak_hi, specs, p1_root, n_start)
        if not isinstance(dec, str):
            return dec
        diagnosis[case] = dec
    return CaseDecision("none", n_start, numeric=numeric, diagnosis=diagnosis)


def predict(source, N, strict_extension=False):
    """The endpoint case of a coefficient source: classify its pairs
    1..N (a table may stop earlier), place the root of P_1 = B_0 at B_0's
    precision and decide.  Returns (boundary specs, first root, decision)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pairs = []
    for n in range(1, N + 1):
        try:
            pairs.append(source.pair(n))
        except IndexError:
            break  # a table may stop at the last generation step
    specs = [boundary_zeros(classify(c)) for c in pairs]
    p1 = source.pair(0).B
    if p1.degree != 1:
        raise ValueError(f"B_0 must have degree 1 to place the first root, got {format_poly(p1)}")
    with mpmath.workprec(p1.prec or mpmath.mp.prec):
        gamma = -p1.coeffs[0] / p1.coeffs[1]
    return specs, gamma, decide_case(specs, gamma, strict_extension=strict_extension)


def _k_end_decay_ok(spec, point, n):
    """A K zero at an infinite endpoint must dominate polynomial growth:
    the rolled-up product K P_n has to vanish there too.  Exponential-type
    decay (linear or quadratic exponent) beats every degree; algebraic
    decay |x|^E only beats degree n when E + n < 0."""
    if is_finite(point):
        return None
    form = spec.classification.form
    if form.quad or form.lin or form.growth + n < 0:
        return None
    return (
        f"K decays only algebraically (like |x|^{format_scalar(form.growth)}) at {format_scalar(point)}, "
        f"too slowly to damp a degree-{n} member"
    )


def _ends_bad(spec, alpha, beta, ak_lo=False, ak_hi=False):
    """Why K cannot carry P_n across (alpha, beta), or None: K needs a finite
    limit from inside at each end that is an A/K zero (ak_lo, ak_hi) and no
    blow-up point strictly inside."""
    form = spec.classification.form
    if (ak_lo and limit_class(form, alpha, "+") == INF) or (ak_hi and limit_class(form, beta, "-") == INF):
        return "K has no finite limit at an endpoint"
    for s in spec.k_singular:
        if alpha < s < beta:
            return f"K blows up at {format_scalar(s)} inside ({format_scalar(alpha)}, {format_scalar(beta)})"
    return None


def _chain_ok(alphas, betas, strict_alpha=False, strict_beta=False, n_start=1):
    for i in range(len(alphas)):
        if not alphas[i] < betas[i]:
            return f"alpha_{n_start + i} >= beta_{n_start + i}"
    for i in range(len(alphas) - 1):
        n = n_start + i
        a_ok = alphas[i + 1] < alphas[i] if strict_alpha else not alphas[i] < alphas[i + 1]
        if not a_ok:
            op = "<" if strict_alpha else "<="
            return f"n={n + 1}: need alpha_{n + 1} {op} alpha_{n}"
        b_ok = betas[i] < betas[i + 1] if strict_beta else not betas[i + 1] < betas[i]
        if not b_ok:
            op = "<" if strict_beta else "<="
            return f"n={n}: need beta_{n} {op} beta_{n + 1}"
    return None


def _gamma_ok(gamma, alpha, beta, weak_low=False, weak_high=False):
    g = as_exact(gamma)  # the root of a float P_1 is the dyadic rational its mpf holds
    lo_ok = alpha <= g if weak_low else alpha < g
    hi_ok = g <= beta if weak_high else g < beta
    if not (lo_ok and hi_ok):
        lo_op = "<=" if weak_low else "<"
        hi_op = "<=" if weak_high else "<"
        return f"first root {format_scalar(gamma)} violates alpha_1 {lo_op} root {hi_op} beta_1"
    return None


def _ends_a(spec, n):
    """Case a's ends at degree n: the two zeros of K."""
    zs = spec.zeros_of_k
    if len(zs) != 2:
        return f"n={n}: K vanishes at {len(zs)} point(s), need exactly 2"
    lo, hi = zs
    if not lo.usable_as_left():
        return f"n={n}: K -> 0 at {lo!r} only from the wrong side for a left endpoint"
    if not hi.usable_as_right():
        return f"n={n}: K -> 0 at {hi!r} only from the wrong side for a right endpoint"
    why = (_k_end_decay_ok(spec, lo.point, n) or _k_end_decay_ok(spec, hi.point, n)
           or _ends_bad(spec, lo.point, hi.point))
    return f"n={n}: {why}" if why else (lo.point, hi.point)


def _ends_bc(spec, n, gamma, ak_lo, closed, label):
    """Case b or c's ends at degree n: the one zero of K, and on the side
    ak_lo names (below it if true) the nearest finite A/K zero that K
    tolerates and, at n = 1, that admits the first root."""
    zs = spec.zeros_of_k
    if len(zs) != 1:
        return f"n={n}: K vanishes at {len(zs)} point(s), need exactly 1"
    kz = zs[0]
    slow = _k_end_decay_ok(spec, kz.point, n)
    if slow:
        return f"n={n}: {slow}"
    if not (kz.usable_as_right() if ak_lo else kz.usable_as_left()):
        return f"n={n}: K zero at {kz!r} unusable as a {'right' if ak_lo else 'left'} endpoint"
    for z in reversed(spec.zeros_of_a_over_k) if ak_lo else spec.zeros_of_a_over_k:
        lo, hi = (z.point, kz.point) if ak_lo else (kz.point, z.point)
        if (lo < hi and is_finite(z.point) and (z.usable_as_left() if ak_lo else z.usable_as_right())
                and not _ends_bad(spec, lo, hi, ak_lo, not ak_lo)
                and not (n == 1 and _gamma_ok(gamma, lo, hi, *closed))):
            return lo, hi
    return f"n={n} ({label}): no usable A/K vanishing point opposite the K zero"


def _ends_d(spec, n):
    """Case d's ends at degree n: the two zeros of A/K, where K never vanishes."""
    if spec.zeros_of_k:
        return f"n={n}: K vanishes at {spec.zeros_of_k[0]!r}, but case d needs K != 0 everywhere"
    zs = spec.zeros_of_a_over_k
    if len(zs) != 2:
        return f"n={n}: A/K vanishes at {len(zs)} point(s), need exactly 2"
    lo, hi = zs
    if not is_finite(lo.point) or not is_finite(hi.point):
        return f"n={n}: A/K endpoints must be finite (a zero of the next member sits on each)"
    if not lo.usable_as_left() or not hi.usable_as_right():
        return f"n={n}: A/K vanishing sides incompatible with endpoints"
    why = _ends_bad(spec, lo.point, hi.point, True, True)
    return f"n={n}: {why}" if why else (lo.point, hi.point)


# (case, A/K zero at alpha, A/K zero at beta); every other end is a K zero
_PATTERNS = (("a", False, False), ("b", False, True), ("b", True, False),
             ("c", False, True), ("c", True, False), ("d", True, True))
_VANISHING = {
    "a": "K = 0 exactly at both endpoints",
    "b": "K = 0 at one endpoint, A/K = 0 at the other",
    "c": "K = 0 at one endpoint, A/K = 0 at the other",
    "d": "K never 0, A/K = 0 at both endpoints",
}
_GROWTH = {
    "b": "strict outer-endpoint growth ({})",
    "c": "no growth requirement (case c)",
    "d": "strict two-sided endpoint growth",
}


def _match(case, ak_lo, ak_hi, specs, gamma, n_start):
    """The decision for one endpoint pattern, or why it fails.  The ends
    flagged ak_lo/ak_hi are zeros of A/K, the others zeros of K.  The
    inductive step puts a zero of the next member exactly on an A/K end, so
    b and d need that end to move strictly outward with n, and c closes it."""
    label = f"{case}/k-at-{'beta' if ak_lo else 'alpha'}" if ak_lo != ak_hi else ""
    closed = (ak_lo, ak_hi) if case == "c" else (False, False)
    ends = []
    for i, spec in enumerate(specs):
        n = n_start + i
        if ak_lo != ak_hi:
            e = _ends_bc(spec, n, gamma, ak_lo, closed, label)
        else:
            e = (_ends_d if ak_lo else _ends_a)(spec, n)
        if isinstance(e, str):
            return e
        ends.append(e)
    alphas, betas = (tuple(x) for x in zip(*ends))
    strict = (ak_lo, ak_hi) if case in "bd" else (False, False)
    why = _chain_ok(alphas, betas, *strict, n_start=n_start)
    if not why and n_start == 1:
        why = _gamma_ok(gamma, alphas[0], betas[0], *closed)
    if why:
        return f"({label}) {why}" if label else why
    checklist = [
        ChecklistItem(f"vanishing pattern ({case}): {_VANISHING[case]}", True, label),
        ChecklistItem("continuity/differentiability on each [alpha_n, beta_n]", True),
    ]
    if case != "a":
        growth = "beta_n < beta_(n+1)" if ak_hi else "alpha_(n+1) < alpha_n"
        checklist.append(ChecklistItem(_GROWTH[case].format(growth), True))
    if case != "d":
        checklist.append(ChecklistItem("endpoint monotonicity alpha_(n+1) <= alpha_n < beta_n <= beta_(n+1)", True))
    root = "first root location" if label else "first root inside (alpha_1, beta_1)"
    checklist.append(ChecklistItem(root, True, format_scalar(gamma)))
    containment = None
    if case != "d":
        # one extra entry for the member past the last classified step: its
        # extreme zero sits exactly on the A/K end of that step
        containment = tuple((a, b, *closed) for a, b in ends) + ((alphas[-1], betas[-1], ak_lo, ak_hi),)
    return CaseDecision(case, n_start, alphas, betas, tuple(checklist), case != "c", case != "d", containment,
                        isinstance(gamma, mpmath.mpf))
