"""Damping-factor analysis for the recurrence P_{n+1} = A P' + B P.

With K(x) = exp(int^x B/A), the recurrence step rewrites as
P_{n+1} = (A/K) d/dx [K P].  Since A is at most quadratic and B at most
linear, B/A has an explicit partial-fraction decomposition and K a closed
form built from powers of |x - s|, exponentials of polynomials, simple
pole exponentials exp(d/(x - s)) and a bounded arctangent factor.  This
module classifies that closed form from the coefficients, enumerates
where K and A/K vanish on the extended real line, and matches the
per-degree vanishing patterns against the four endpoint configurations
(a)-(d) that force zeros of the generated polynomials to be real and
simple, confined to an interval, interlacing with the next degree, or
some combination.

K is handled through |K|: all zero/limit analysis is insensitive to the
sign convention between singular points, and real powers of negative
bases never arise.

Points and exponents are exact (Fractions, or `poly.Surd`s at irrational
roots of A) and are ordered with plain `<`; only `log_k_eval` uses floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath

from .poly import NEG_INF, POS_INF, RATIONAL, Surd, as_exact, format_scalar, is_finite, to_mpf
from .dde import CoefficientPair

ZERO = "zero"
FINITE = "finite"
INF = "inf"

EXTENSION_TAGS = {"B-zero", "linear-A-constant-B", "constant-A-constant-B", "irreducible-quadratic-A"}


class SingularPointError(ValueError):
    """Evaluation requested at a singular point of the closed form."""


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
        for p, e in self.log_terms:
            if p == s:
                return e
        return Fraction(0)

    def pole_at(self, s):
        for p, d in self.poles:
            if p == s:
                return d
        return Fraction(0)

    def singular_points(self):
        return tuple(sorted({s for s, e in self.log_terms if e} | {s for s, d in self.poles if d}))


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
    d = form.pole_at(point)
    if d:
        if side == "+":
            return INF if d > 0 else ZERO
        return INF if d < 0 else ZERO
    e = form.exponent_at(point)
    if e > 0:
        return ZERO
    if e < 0:
        return INF
    return FINITE


@dataclass(frozen=True)
class KClassification:
    """Closed-form shape of the damping factor for one coefficient pair."""

    tag: str
    pair: CoefficientPair  # normalized: A monic
    form: LogDerivativeForm
    a_roots: tuple  # ((root, multiplicity), ...) real roots of A

    @property
    def extension(self):
        return self.tag in EXTENSION_TAGS

    def exponent_at(self, s):
        return self.form.exponent_at(s)

    def a_over_k_form(self):
        """log|A/K| has log-derivative A'/A - B/A = (A' - B)/A."""
        A = self.pair.A
        return _log_form(A, A.derivative() - self.pair.B, self.a_roots)


def normalize(c):
    """Scale the pair so A is monic; K is unchanged since it sees only B/A."""
    if c.A.is_zero:
        raise ValueError("A must be nonzero")
    lc = c.A.lead
    if lc == 1:
        return c
    return CoefficientPair(c.A.monic(), c.B.scale(1 / lc if c.A.kind != RATIONAL else Fraction(1) / lc))


def classify(c):
    """Identify the closed form of K from a coefficient pair.

    Requires rational coefficients.  A quadratic A with an irrational
    (positive, non-square) discriminant has two `Surd` roots, and every
    point and exponent is exact.
    """
    c = normalize(c)
    A, B = c.A, c.B
    if A.kind != RATIONAL or (not B.is_zero and B.kind != RATIONAL):
        raise ValueError("classification requires rational coefficients; bind parameters to rationals first")
    roots = _real_roots_of_a(A)
    return KClassification(_tag(A, B, roots), c, _log_form(A, B, roots), roots)


def _tag(A, B, roots):
    """Shape tag from deg A, the real roots of A, deg B and whether B's
    root is a (rational) root of A."""
    if B.is_zero:
        return "B-zero"
    if A.degree == 2 and not roots:
        return "irreducible-quadratic-A"
    shape = ("constant-A", "linear-A", "equal-roots" if len(roots) == 1 else "distinct-roots")[A.degree]
    if B.degree == 0:
        return f"{shape}-constant-B"
    if A.degree == 0:
        return shape
    matches = any(isinstance(r, Fraction) and B(r) == 0 for r, _ in roots)
    if A.degree == 1:
        return "linear-A-equal" if matches else "linear-A-distinct"
    return "B-root-matches-A-root" if matches else f"{shape}-linear-B"


def _log_form(A, R, roots):
    """Closed form of log|exp(int R/A)| by partial fractions, for monic A
    (degree <= 2) with real roots `roots`, ascending, and deg R <= 1.

    K is the case R = B and A/K the case R = A' - B.  The growth exponent
    at +-inf is the exact residue sum: r1 for quadratic A, R(lam) for
    linear A.
    """
    r0, r1 = R.coeff(0), R.coeff(1)
    if A.degree == 0:  # r0 + r1 x
        return LogDerivativeForm(lin=r0, quad=r1 / 2)
    if A.degree == 1:  # r1 + R(lam)/(x - lam)
        lam = roots[0][0]
        e = R(lam)
        return LogDerivativeForm(log_terms=((lam, e),) if e else (), lin=r1, growth=e)
    if not roots:  # (r1/2) A'/A + (r0 - r1 p/2)/A
        p, q = A.coeffs[1], A.coeffs[0]
        g, cc = r1 / 2, r0 - r1 * p / 2
        return LogDerivativeForm(
            quad_logs=((p, q, g),) if g else (),
            atans=((cc, p, q),) if cc else (),
            growth=r1,
        )
    if len(roots) == 1:  # r1/(x - lam) + R(lam)/(x - lam)^2
        lam = roots[0][0]
        d = -R(lam)
        return LogDerivativeForm(
            log_terms=((lam, r1),) if r1 else (),
            poles=((lam, d),) if d else (),
            growth=r1,
        )
    # R(lam)/(lam - xi) / (x - lam) + R(xi)/(xi - lam) / (x - xi); at surd roots
    # a +- b sqrt(d), R/A' = (R(a) +- r1 b sqrt(d)) / (+-2b sqrt(d)) = r1/2 +- (R(a)/(2bd)) sqrt(d)
    (xi, _), (lam, _) = roots
    if isinstance(lam, Surd):
        ra = R(lam.a)
        logs = tuple((s, Surd(r1 / 2, ra / (2 * s.b * s.d), s.d) if ra else r1 / 2) for s in (lam, xi))
    else:
        logs = ((lam, R(lam) / (lam - xi)), (xi, R(xi) / (xi - lam)))
    return LogDerivativeForm(log_terms=tuple((s, e) for s, e in logs if e), growth=r1)


def _real_roots_of_a(A):
    """Real roots of monic A (degree <= 2), ascending, with multiplicities."""
    if A.degree == 0:
        return ()
    if A.degree == 1:
        return ((-A.coeffs[0], 1),)
    p, q = A.coeffs[1], A.coeffs[0]
    disc = p * p - 4 * q
    if disc < 0:
        return ()
    if disc == 0:
        return ((-p / 2, 2),)
    d = disc.numerator * disc.denominator  # sqrt(disc) = sqrt(d) / denominator
    s, b = isqrt(d), Fraction(1, 2 * disc.denominator)
    if s * s == d:
        return ((-p / 2 - s * b, 1), (-p / 2 + s * b, 1))
    return ((Surd(-p / 2, -b, d), 1), (Surd(-p / 2, b, d), 1))


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


def _vanishing_points(form):
    """Zeros of exp(form) on the extended real line, and the (point, class
    from below, class from above) of each singular point they were read from."""
    sided = tuple((s, limit_class(form, s, "-"), limit_class(form, s, "+")) for s in form.singular_points())
    out = []
    for s, left, right in sided:
        if left == ZERO and right == ZERO:
            out.append(SidedZero(s, "both"))
        elif left == ZERO:
            out.append(SidedZero(s, "left"))
        elif right == ZERO:
            out.append(SidedZero(s, "right"))
    if limit_class(form, NEG_INF) == ZERO:
        out.insert(0, SidedZero(NEG_INF, "right"))
    if limit_class(form, POS_INF) == ZERO:
        out.append(SidedZero(POS_INF, "left"))
    return tuple(out), sided


@dataclass(frozen=True)
class BoundarySpec:
    """Vanishing sets of K and A/K on the extended real line for one pair."""

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
    """Where K and A/K vanish, and where K blows up, for a classification."""
    zeros_of_k, k_sided = _vanishing_points(k.form)
    zeros_of_a_over_k, _ = _vanishing_points(k.a_over_k_form())
    return BoundarySpec(
        classification=k,
        zeros_of_k=zeros_of_k,
        zeros_of_a_over_k=zeros_of_a_over_k,
        k_singular=tuple(s for s, left, right in k_sided if INF in (left, right)),
    )


def k_eval(k, x, prec=53):
    """|K|(x) as a big float; raises SingularPointError at singular points."""
    return float(mpmath.exp(log_k_eval(k, x, prec)))


def log_k_eval(k, x, prec=53):
    """log |K|(x) evaluated term by term at `prec` bits."""
    form = k.form
    with mpmath.workprec(prec + 16):
        xv = to_mpf(x, prec + 16)
        total = mpmath.mpf(0)
        for s, e in form.log_terms:
            dx = xv - to_mpf(s, prec + 16)
            if dx == 0:
                raise SingularPointError(f"log|K| singular at x = {format_scalar(s)}")
            total += to_mpf(e, prec + 16) * mpmath.log(abs(dx))
        for p, q, g in form.quad_logs:
            total += to_mpf(g, prec + 16) * mpmath.log(xv * xv + to_mpf(p) * xv + to_mpf(q))
        total += to_mpf(form.lin, prec + 16) * xv + to_mpf(form.quad, prec + 16) * xv * xv
        for s, d in form.poles:
            dx = xv - to_mpf(s, prec + 16)
            if dx == 0:
                raise SingularPointError(f"log|K| singular at x = {format_scalar(s)}")
            total += to_mpf(d, prec + 16) / dx
        for cc, p, q in form.atans:
            s0 = mpmath.sqrt(4 * to_mpf(q) - to_mpf(p) ** 2)
            total += to_mpf(cc) * (2 / s0) * mpmath.atan((2 * xv + to_mpf(p)) / s0)
        return total


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
    numeric: bool = False  # always False: every endpoint is exact; kept as a report key
    diagnosis: dict | None = None

    @property
    def ok(self):
        return self.case != "none"


def decide_case(specs, p1_root, n_start=1, strict_extension=False):
    """Match per-degree boundary specs against endpoint configurations.

    specs[i] describes the coefficient pair at n = n_start + i; p1_root is
    the single root of P_1.  Cases are tried strongest first; the first
    one whose hypotheses all hold is returned.
    """
    if not specs:
        raise ValueError("no boundary specs supplied")
    if strict_extension:
        for i, s in enumerate(specs):
            if s.classification.tag == "irreducible-quadratic-A":
                return CaseDecision(
                    "none", n_start, diagnosis={"all": f"n={n_start + i}: irreducible quadratic A refused (strict mode)"}
                )
    diagnosis = {}
    for case in "abcd":
        dec = _try_case(case, specs, p1_root, n_start)
        if dec.ok:
            return dec
        diagnosis[case] = dec.diagnosis["failure"]
    return CaseDecision("none", n_start, diagnosis=diagnosis)


def _fail(msg):
    return CaseDecision("none", diagnosis={"failure": msg})


def _interior_continuity(spec, alpha, beta):
    """K continuous/differentiable between the endpoints: no blow-up point
    of K strictly inside (alpha, beta)."""
    for s in spec.k_singular:
        if alpha < s < beta:
            return f"K blows up at {format_scalar(s)} inside ({format_scalar(alpha)}, {format_scalar(beta)})"
    return None


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


def _endpoint_finite(spec, point, side):
    """K has a finite limit at an interval endpoint, approached from inside."""
    if limit_class(spec.classification.form, point, side) == INF:
        return f"K has no finite limit at endpoint {format_scalar(point)}"
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


def _try_case(case, specs, gamma, n_start):
    if case == "a":
        return _try_case_a(specs, gamma, n_start)
    if case in ("b", "c"):
        dec = _try_case_bc(case, "k-at-alpha", specs, gamma, n_start)
        return dec if dec.ok else _try_case_bc(case, "k-at-beta", specs, gamma, n_start)
    return _try_case_d(specs, gamma, n_start)


def _try_case_a(specs, gamma, n_start):
    alphas, betas = [], []
    for i, spec in enumerate(specs):
        n = n_start + i
        zs = spec.zeros_of_k
        if len(zs) != 2:
            return _fail(f"n={n}: K vanishes at {len(zs)} point(s), need exactly 2")
        lo, hi = (zs[0], zs[1]) if zs[0].point < zs[1].point else (zs[1], zs[0])
        if not lo.usable_as_left():
            return _fail(f"n={n}: K -> 0 at {lo!r} only from the wrong side for a left endpoint")
        if not hi.usable_as_right():
            return _fail(f"n={n}: K -> 0 at {hi!r} only from the wrong side for a right endpoint")
        for pt in (lo.point, hi.point):
            slow = _k_end_decay_ok(spec, pt, n)
            if slow:
                return _fail(f"n={n}: {slow}")
        bad = _interior_continuity(spec, lo.point, hi.point)
        if bad:
            return _fail(f"n={n}: {bad}")
        alphas.append(lo.point)
        betas.append(hi.point)
    chain = _chain_ok(alphas, betas, n_start=n_start)
    if chain:
        return _fail(chain)
    gbad = _gamma_ok(gamma, alphas[0], betas[0]) if n_start == 1 else None
    if gbad:
        return _fail(gbad)
    checklist = (
        ChecklistItem("vanishing pattern (a): K = 0 exactly at both endpoints", True),
        ChecklistItem("continuity/differentiability on each [alpha_n, beta_n]", True),
        ChecklistItem("endpoint monotonicity alpha_(n+1) <= alpha_n < beta_n <= beta_(n+1)", True),
        ChecklistItem("first root inside (alpha_1, beta_1)", True, format_scalar(gamma)),
    )
    containment = tuple((a, b, False, False) for a, b in zip(alphas, betas))
    containment += ((alphas[-1], betas[-1], False, False),)
    return CaseDecision("a", n_start, tuple(alphas), tuple(betas), checklist, True, True, containment)


def _try_case_bc(case, orient, specs, gamma, n_start):
    label = f"{case}/{orient}"
    alphas, betas = [], []
    for i, spec in enumerate(specs):
        n = n_start + i
        zs = spec.zeros_of_k
        if len(zs) != 1:
            return _fail(f"n={n}: K vanishes at {len(zs)} point(s), need exactly 1")
        kz = zs[0]
        slow = _k_end_decay_ok(spec, kz.point, n)
        if slow:
            return _fail(f"n={n}: {slow}")
        # the opposite endpoint must be a finite A/K zero: the inductive step
        # places a zero of the next member exactly there
        if orient == "k-at-alpha":
            if not kz.usable_as_left():
                return _fail(f"n={n}: K zero at {kz!r} unusable as a left endpoint")
            cands = [
                z for z in spec.zeros_of_a_over_k
                if z.usable_as_right() and is_finite(z.point) and kz.point < z.point
            ]
            cands.sort(key=lambda z: z.point)
        else:
            if not kz.usable_as_right():
                return _fail(f"n={n}: K zero at {kz!r} unusable as a right endpoint")
            cands = [
                z for z in spec.zeros_of_a_over_k
                if z.usable_as_left() and is_finite(z.point) and z.point < kz.point
            ]
            cands.sort(key=lambda z: z.point, reverse=True)
        chosen = None
        for cand in cands:
            side = "-" if orient == "k-at-alpha" else "+"
            if _endpoint_finite(spec, cand.point, side):
                continue
            alpha, beta = (kz.point, cand.point) if orient == "k-at-alpha" else (cand.point, kz.point)
            if _interior_continuity(spec, alpha, beta):
                continue
            if n == 1:
                weak_high = case == "c" and orient == "k-at-alpha"
                weak_low = case == "c" and orient == "k-at-beta"
                if _gamma_ok(gamma, alpha, beta, weak_low, weak_high):
                    continue
            chosen = (alpha, beta)
            break
        if chosen is None:
            return _fail(f"n={n} ({label}): no usable A/K vanishing point opposite the K zero")
        alphas.append(chosen[0])
        betas.append(chosen[1])
    strict_beta = case == "b" and orient == "k-at-alpha"
    strict_alpha = case == "b" and orient == "k-at-beta"
    chain = _chain_ok(alphas, betas, strict_alpha, strict_beta, n_start=n_start)
    if chain:
        return _fail(f"({label}) {chain}")
    if n_start == 1:
        weak_high = case == "c" and orient == "k-at-alpha"
        weak_low = case == "c" and orient == "k-at-beta"
        gbad = _gamma_ok(gamma, alphas[0], betas[0], weak_low, weak_high)
        if gbad:
            return _fail(f"({label}) {gbad}")
    if case == "b":
        growth = "beta_n < beta_(n+1)" if strict_beta else "alpha_(n+1) < alpha_n"
        checklist_growth = ChecklistItem(f"strict outer-endpoint growth ({growth})", True)
        interlacing, real_simple = True, True
        lo_closed = hi_closed = False
    else:
        checklist_growth = ChecklistItem("no growth requirement (case c)", True)
        interlacing, real_simple = False, True
        hi_closed = orient == "k-at-alpha"
        lo_closed = orient == "k-at-beta"
    checklist = (
        ChecklistItem(f"vanishing pattern ({case}): K = 0 at one endpoint, A/K = 0 at the other", True, label),
        ChecklistItem("continuity/differentiability on each [alpha_n, beta_n]", True),
        checklist_growth,
        ChecklistItem("endpoint monotonicity alpha_(n+1) <= alpha_n < beta_n <= beta_(n+1)", True),
        ChecklistItem("first root location", True, format_scalar(gamma)),
    )
    containment = tuple((a, b, lo_closed, hi_closed) for a, b in zip(alphas, betas))
    # one extra entry for the member past the last classified step: its
    # extreme zero sits exactly on the A/K endpoint of that step
    step_lo = lo_closed or orient == "k-at-beta"
    step_hi = hi_closed or orient == "k-at-alpha"
    containment += ((alphas[-1], betas[-1], step_lo, step_hi),)
    return CaseDecision(case, n_start, tuple(alphas), tuple(betas), checklist, interlacing, real_simple, containment)


def _try_case_d(specs, gamma, n_start):
    alphas, betas = [], []
    for i, spec in enumerate(specs):
        n = n_start + i
        if spec.zeros_of_k:
            return _fail(f"n={n}: K vanishes at {spec.zeros_of_k[0]!r}, but case d needs K != 0 everywhere")
        zs = spec.zeros_of_a_over_k
        if len(zs) != 2:
            return _fail(f"n={n}: A/K vanishes at {len(zs)} point(s), need exactly 2")
        lo, hi = (zs[0], zs[1]) if zs[0].point < zs[1].point else (zs[1], zs[0])
        if not is_finite(lo.point) or not is_finite(hi.point):
            return _fail(f"n={n}: A/K endpoints must be finite (a zero of the next member sits on each)")
        if not lo.usable_as_left() or not hi.usable_as_right():
            return _fail(f"n={n}: A/K vanishing sides incompatible with endpoints")
        if _endpoint_finite(spec, lo.point, "+") or _endpoint_finite(spec, hi.point, "-"):
            return _fail(f"n={n}: K has no finite limit at an endpoint")
        bad = _interior_continuity(spec, lo.point, hi.point)
        if bad:
            return _fail(f"n={n}: {bad}")
        alphas.append(lo.point)
        betas.append(hi.point)
    chain = _chain_ok(alphas, betas, strict_alpha=True, strict_beta=True, n_start=n_start)
    if chain:
        return _fail(chain)
    gbad = _gamma_ok(gamma, alphas[0], betas[0]) if n_start == 1 else None
    if gbad:
        return _fail(gbad)
    checklist = (
        ChecklistItem("vanishing pattern (d): K never 0, A/K = 0 at both endpoints", True),
        ChecklistItem("continuity/differentiability on each [alpha_n, beta_n]", True),
        ChecklistItem("strict two-sided endpoint growth", True),
        ChecklistItem("first root inside (alpha_1, beta_1)", True, format_scalar(gamma)),
    )
    return CaseDecision("d", n_start, tuple(alphas), tuple(betas), checklist, True, False, None)
