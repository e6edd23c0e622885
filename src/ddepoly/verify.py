"""Cross-validation: do empirically computed zeros match what the endpoint
configuration predicts?

`verify_sequence` generates a family, classifies its damping factors,
decides which endpoint configuration applies, then independently computes
every member's zeros (exactly, in rational mode) and checks reality,
simplicity, containment (honoring closed endpoints) and interlacing.
Disagreement is reported, never patched over: the prediction side is a
proved statement, so any mismatch points at an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .dde import generate, step
from .families import FamilySpec, coefficient_source
from .kfactor import SingularPointError, classify, log_k_eval, predict
from .poly import (
    FLOAT,
    NEG_INF,
    POS_INF,
    RATIONAL,
    Poly,
    _sign,
    format_scalar,
    is_finite,
    to_mpf,
)
from .roots import (
    Interval,
    RealSimpleCheck,
    _Isolator,
    _signs_at,
    certify_next,
    interlaces,
    is_real_simple,
    isolate_roots,
    sturm_count,
)


@dataclass(frozen=True)
class SequenceRecord:
    """Empirical findings for one member of the sequence."""

    n: int
    degree: int
    real_simple: bool
    real_simple_witness: str | None
    zeros: tuple  # refined isolating intervals
    containment: str  # "ok" | "fail" | "not-claimed" | "skipped"
    containment_witness: str | None
    interlace_with_next: str | None  # verdict vs P_{n+1}, None for the last member
    interlace_witness: str | None


@dataclass(frozen=True)
class VerificationReport:
    family: object
    N: int
    decision: object
    records: tuple
    agreement: bool
    failures: tuple
    numeric: bool = False
    collapsed: tuple = ()
    truncated_at: int | None = None


def _check_containment(p, bounds, iso=None):
    """Witness for zeros of the real-simple p outside the claimed interval,
    or None.  Counts the zeros beyond each finite endpoint exactly, at a
    Fraction or a Surd endpoint alike.  `iso` is an isolator already built
    for p."""
    alpha, beta, lo_closed, hi_closed = bounds
    if is_finite(beta):
        n = sturm_count(p, Interval(beta, POS_INF, lo_open=hi_closed), iso=iso)
        if n:
            end = "]" if hi_closed else ")"
            return f"{n} zero(s) beyond right endpoint {format_scalar(beta)}{end}"
    if is_finite(alpha):
        n = sturm_count(p, Interval(NEG_INF, alpha, hi_open=lo_closed), iso=iso)
        if n:
            end = "[" if lo_closed else "("
            return f"{n} zero(s) below left endpoint {end}{format_scalar(alpha)}"
    return None


def verify_sequence(spec, N, width=Fraction(1, 10**9), strict_extension=False):
    """Generate, predict, and empirically verify a sequence up to degree N.

    `spec` is a FamilySpec or any coefficient source exposing pair(n).
    Exact arithmetic throughout for rational input; irrational endpoints
    are exact surds.  Each rational member is certified real-simple from
    the zeros of the member before by its own exact signs
    (`roots.certify_next`), which also isolates its zeros and places them
    among the previous member's; containment and interlacing are read off
    those places.  A member the certificate declines, a float member, and
    every failing or unsettled verdict take the Sturm path (`is_real_simple`,
    `isolate_roots`, `sturm_count`, `interlaces`), so each failure witness
    is a Sturm count.  The report carries a numeric flag when the data are
    approximate, that is when a member has big-float coefficients; those
    are decided exactly as the dyadic rationals they hold.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if isinstance(spec, FamilySpec):
        source = coefficient_source(spec)
        family = spec.describe()
    else:
        source = spec
        family = getattr(spec, "name", "custom")
    seq = generate(source, N)
    top = len(seq.polys) - 1
    failures = []
    if seq.truncated_at is not None:
        failures.append(seq.diagnostic)
    usable = top
    for m in seq.collapsed:
        usable = min(usable, m - 1)
        failures.append(f"degree collapse at P_{m}; verification truncated to n <= {usable}")
    if usable < 1:
        return VerificationReport(family, N, None, (), False, tuple(failures), False,
                                  seq.collapsed, seq.truncated_at)

    numeric = any(p.kind == FLOAT for p in seq.polys[: usable + 1])
    decision = predict(source, usable, strict_extension)[2]
    members = _roots_of_members(seq, usable, width)
    if not decision.ok:
        failures.extend(f"case ({case}) hypothesis fails: {why}" for case, why in decision.diagnosis.items())
        records = tuple(_empirical_record(seq, n, usable, None, members) for n in range(1, usable + 1))
        return VerificationReport(family, N, decision, records, False, tuple(failures), numeric,
                                  seq.collapsed, seq.truncated_at)

    records = []
    for n in range(1, usable + 1):
        bounds = None
        if decision.containment is not None and n - 1 < len(decision.containment):
            bounds = decision.containment[n - 1]
        rec = _empirical_record(seq, n, usable, bounds, members)
        records.append(rec)
        if not rec.real_simple:
            failures.append(f"P_{n} not real-simple: {rec.real_simple_witness}")
        if rec.containment == "fail":
            failures.append(f"P_{n} containment: {rec.containment_witness}")
        if decision.interlacing and rec.interlace_with_next == "fail":
            failures.append(f"P_{n} / P_{n + 1} interlacing: {rec.interlace_witness}")
    agreement = not failures
    return VerificationReport(family, N, decision, tuple(records), agreement, tuple(failures),
                              numeric, seq.collapsed, seq.truncated_at)


@dataclass(frozen=True)
class _MemberRoots:
    check: object  # RealSimpleCheck
    zeros: tuple
    places: tuple | None = None  # `Certificate.places`; None on the Sturm path
    iso: object = None  # the Sturm isolator there


def _roots_of_members(seq, usable, width):
    """Each member's reality check and zeros, in order.  A rational member is
    certified from the zeros of the one before (`certify_next`); where that
    declines, or the member is float, one Sturm chain serves its checks."""
    out = {}
    prev = ()  # P_0 is constant
    for n in range(1, usable + 1):
        p = seq[n]
        cert = certify_next(seq[n - 1], prev, p, width) if p.kind == RATIONAL and prev is not None else None
        if cert is not None:
            out[n] = _MemberRoots(RealSimpleCheck(True), cert.zeros, cert.places)
        else:
            iso = _Isolator(p) if p.kind == RATIONAL else None
            chk = is_real_simple(p, iso=iso)
            zeros = tuple(r.interval for r in isolate_roots(p, width, iso=iso).roots) if chk.ok else ()
            out[n] = _MemberRoots(chk, zeros, None, iso)
        prev = out[n].zeros if out[n].check.ok and p.kind == RATIONAL else None
    return out


def _empirical_record(seq, n, usable, bounds, members):
    p, own = seq[n], members[n]
    containment = "skipped"
    containment_witness = None
    interlace = None
    interlace_witness = None
    if own.check.ok:
        if bounds is None:
            containment = "not-claimed"
        elif own.places is not None and _zeros_inside(p, own.zeros, bounds):
            containment = "ok"
        else:
            containment_witness = _check_containment(p, bounds, own.iso)
            containment = "fail" if containment_witness else "ok"
        if n < usable:
            nxt = members[n + 1]
            interlace = _interlace_from_places(nxt.places, p.degree) if nxt.places is not None else None
            if interlace is None:  # unsettled or failing: the Sturm path decides and words it
                try:
                    rep = interlaces(p, seq[n + 1], p_iso=own.iso, q_iso=nxt.iso)
                    interlace = rep.verdict
                    interlace_witness = rep.witness
                except ValueError as exc:  # the next member may fail the preconditions
                    interlace = "fail"
                    interlace_witness = str(exc)
    return SequenceRecord(n, p.degree, own.check.ok, own.check.witness, own.zeros, containment,
                          containment_witness, interlace, interlace_witness)


def _zeros_inside(p, zeros, bounds):
    """Whether the zeros of the real-simple rational p, isolated by `zeros`,
    lie in the claimed interval: the first against alpha and the last
    against beta.  An endpoint inside an isolating interval is placed by
    p's sign there, against p's sign just above the interval's lower end,
    which is its sign at -infinity times (-1)^k for the k-th interval."""
    alpha, beta, lo_closed, hi_closed = bounds
    c = p.primitive_int_coeffs()

    def side(k, x):  # sign of (root k) - x
        iv = zeros[k]
        lo = (iv.lo > x) - (iv.lo < x)
        if iv.is_point:
            return lo
        if lo >= 0:
            return 1
        if iv.hi <= x:
            return -1
        s = _signs_at([c], x)[0]
        return s and (1 if s == _sign(c[-1]) * (-1) ** (len(c) - 1 + k) else -1)

    # a zero on a closed end is inside, on an open one outside
    if is_finite(alpha) and side(0, alpha) < (0 if lo_closed else 1):
        return False
    return not (is_finite(beta) and side(len(zeros) - 1, beta) > (0 if hi_closed else -1))


def _interlace_from_places(places, m):
    """The verdict `interlaces` gives for p of degree m and the next member q,
    read off the places of q's roots among p's, or None when they do not
    settle it or show a failure.  Shared roots are odd places; they may sit
    only at q's first or last root, and the rest must alternate q p ... q."""
    if None in places or any(k % 2 for k in places[1:-1]):
        return None
    shared = {k for k in places if k % 2}
    labels = [label for _, label in sorted([(k, "q") for k in places if k % 2 == 0]
                                           + [(2 * j + 1, "p") for j in range(m) if 2 * j + 1 not in shared])]
    if labels != ["q", "p"] * (len(labels) // 2) + ["q"]:
        return None
    return "weak-shared-endpoint" if shared else "strict"


def check_k_identity(c, k=None, samples=50, fd_step=Fraction(1, 10**6)):
    """Validate the damping factor numerically and the step identity exactly.

    (i) at `samples` points per maximal smooth interval, a centered finite
    difference of log|K| must match B/A (relative error, with an absolute
    floor below magnitude 1); (ii) the recurrence step must equal
    A P' + B P coefficientwise on probe polynomials.  Returns the largest
    error seen; raises if every sample point lands on a singularity.
    """
    if k is None:
        k = classify(c)
    probes = (Poly.rational([1]), Poly.rational([1, 1]), Poly.rational([1, 1, 1]), Poly.rational([-2, 0, 1, 3]))
    for P in probes:
        if c.A.kind == RATIONAL:
            if step(P, c) != c.A * P.derivative() + c.B * P:
                raise AssertionError("step output differs from A P' + B P")
    cuts = sorted(
        {to_mpf(s, 64) for s, _ in k.a_roots} | {to_mpf(s, 64) for s, _ in k.form.log_terms} | {to_mpf(s, 64) for s, _ in k.form.poles},
        key=float,
    )
    if cuts:
        lo = min(cuts) - 4
        hi = max(cuts) + 4
        edges = [lo] + list(cuts) + [hi]
    else:
        edges = [mpmath.mpf(-4), mpmath.mpf(4)]
    worst = 0.0
    sampled = 0
    with mpmath.workdps(45):
        h = to_mpf(fd_step, mpmath.mp.prec)
        for a, b in zip(edges, edges[1:]):
            span = b - a
            if span <= 0:
                continue
            for j in range(samples):
                x = a + span * (j + 1) / (samples + 1)
                bx = _eval_num(c.B, x)
                ax = _eval_num(c.A, x)
                if ax == 0:
                    continue
                if bx == 0 and not c.B.is_zero:
                    x += span / (3 * (samples + 1))
                    bx = _eval_num(c.B, x)
                    ax = _eval_num(c.A, x)
                    if ax == 0:
                        continue
                try:
                    fd = (log_k_eval(k, x + h, 120) - log_k_eval(k, x - h, 120)) / (2 * h)
                except SingularPointError:
                    continue
                val = bx / ax
                err = float(abs(fd - val) / max(abs(val), mpmath.mpf(1)))
                worst = max(worst, err)
                sampled += 1
    if sampled == 0:
        raise ValueError("all sample points degenerate (landed on singularities)")
    return worst


def _eval_num(p, x):
    if p.is_zero:
        return mpmath.mpf(0)
    return p(x)
