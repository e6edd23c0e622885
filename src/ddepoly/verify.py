"""Cross-validation: do empirically computed zeros match what the endpoint
configuration predicts?

`verify_sequence` generates a family, classifies its damping factors,
decides which endpoint configuration applies, then independently computes
every member's zeros exactly and checks reality, simplicity, containment
(honoring closed endpoints) and interlacing.  Containment is read off the
isolated zeros, interlacing off their places among the previous member's
where those settle it.  Disagreement is reported, never patched over: the
prediction side is a proved statement, so any mismatch points at an
implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .dde import CoefficientRule, generate, step
from .families import FamilySpec, coefficient_source
from .kfactor import classify, predict
from .poly import RATIONAL, Poly, Surd, _sign, format_scalar, is_finite
from .roots import _signs_at, interlaces, sequence_zeros

WIDTH = Fraction(1, 10**9)  # the isolating intervals' width in every report


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


def verify_sequence(spec, N, strict_extension=False):
    """Generate, predict, and empirically verify a sequence up to degree N.

    `spec` is a FamilySpec or any coefficient source exposing pair(n).
    The data must be rational: `predict` refuses float pairs (ValueError)
    and `generate` a float B_0 before rational pairs (KindMismatchError),
    so the report's numeric flag is always false.  Arithmetic is exact
    throughout, and irrational endpoints are exact surds.  Every member's
    check and zeros come from `roots.sequence_zeros`, as for the `zeros`
    command: each member is certified real-simple from the zeros of the
    member before by its own exact signs, which also places its zeros among
    the previous member's, and a member the certificate declines gets its
    check and zeros from one Sturm chain.  Zeros are refined to `WIDTH`, and
    a member that is not real-simple reports no zeros.  Containment is
    counted off the zeros on both paths (`_containment_witness`).
    Interlacing is read off the places; an unsettled or failing pair goes
    to `roots.interlaces`, so its witness is a remainder-sequence count.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if isinstance(spec, FamilySpec):
        source = coefficient_source(spec)
        family = spec.describe()
    else:
        source = spec
        family = getattr(spec, "name", "custom")
    source = CoefficientRule(cache(source.pair))  # generate and predict take each pair once
    seq = generate(source, N)
    top = len(seq.polys) - 1
    failures = []
    if seq.truncated_at is not None:
        failures.append(seq.diagnostic)
    usable = top
    if seq.collapsed:  # deg P_(k+1) <= deg P_k + 1, so every later member has collapsed too
        usable = seq.collapsed[0] - 1
        failures.append(f"degree collapse at P_{seq.collapsed[0]}; verification truncated to n <= {usable}")
    if usable < 1:
        return VerificationReport(family, N, None, (), False, tuple(failures),
                                  collapsed=seq.collapsed, truncated_at=seq.truncated_at)

    decision = predict(source, usable, strict_extension)[2]
    members = sequence_zeros(seq.polys[:usable + 1], WIDTH)
    claimed = decision.containment or ()  # a failed decision claims none
    records = tuple(_empirical_record(seq, n, usable, claimed[n - 1] if n - 1 < len(claimed) else None, members)
                    for n in range(1, usable + 1))
    if not decision.ok:
        failures.extend(f"case ({case}) hypothesis fails: {why}" for case, why in decision.diagnosis.items())
    else:
        for rec in records:
            if not rec.real_simple:
                failures.append(f"P_{rec.n} not real-simple: {rec.real_simple_witness}")
            if rec.containment == "fail":
                failures.append(f"P_{rec.n} containment: {rec.containment_witness}")
            if decision.interlacing and rec.interlace_with_next == "fail":
                failures.append(f"P_{rec.n} / P_{rec.n + 1} interlacing: {rec.interlace_witness}")
    return VerificationReport(family, N, decision, records, decision.ok and not failures, tuple(failures),
                              collapsed=seq.collapsed, truncated_at=seq.truncated_at)


def _empirical_record(seq, n, usable, bounds, members):
    p, own = seq[n], members[n]
    containment = "skipped"
    containment_witness = None
    interlace = None
    interlace_witness = None
    if own.check.ok:
        if bounds is None:
            containment = "not-claimed"
        else:
            containment_witness = _containment_witness(p, own.zeros, bounds)
            containment = "fail" if containment_witness else "ok"
        if n < usable:
            nxt = members[n + 1]
            interlace = _interlace_from_places(nxt.places, p.degree) if nxt.places is not None else None
            if interlace is None:  # unsettled or failing: the Sturm path decides and words it
                try:
                    rep = interlaces(p, seq[n + 1])
                    interlace = rep.verdict
                    interlace_witness = rep.witness
                except ValueError as exc:  # the next member may fail the preconditions
                    interlace = "fail"
                    interlace_witness = str(exc)
    return SequenceRecord(n, p.degree, own.check.ok, own.check.witness, own.zeros if own.check else (),
                          containment, containment_witness, interlace, interlace_witness)


def _containment_witness(p, zeros, bounds):
    """Witness for zeros of the real-simple rational p outside the claimed
    interval, or None.  `zeros` are all of p's isolating intervals, sorted;
    the zeros beyond each finite endpoint are counted by scanning in from
    that end to the first zero inside, so a member inside costs one
    comparison per end.  An endpoint (a Fraction or a Surd) inside an
    isolating interval is placed by p's exact sign there, against p's sign
    just above the interval's lower end, which is its sign at -infinity
    times (-1)^k for the k-th interval."""
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

    def beyond(ks, outside):  # zeros from one end up to the first inside
        return next((i for i, k in enumerate(ks) if not outside(k)), len(zeros))

    # a zero on a closed end is inside, on an open one outside
    if is_finite(beta):
        n = beyond(reversed(range(len(zeros))), lambda k: side(k, beta) > (0 if hi_closed else -1))
        if n:
            end = "]" if hi_closed else ")"
            return f"{n} zero(s) beyond right endpoint {format_scalar(beta)}{end}"
    if is_finite(alpha):
        n = beyond(range(len(zeros)), lambda k: side(k, alpha) < (0 if lo_closed else 1))
        if n:
            end = "[" if lo_closed else "("
            return f"{n} zero(s) below left endpoint {end}{format_scalar(alpha)}"
    return None


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


def check_k_identity(c, k=None, samples=None):
    """Check the damping factor and the step identity exactly.

    (i) The derivative of the closed form of log|K|, a rational function
    N/D, must equal B/A: N A == B D as polynomials.  (ii) The recurrence
    step must equal A P' + B P coefficientwise on probe polynomials.
    Returns 0.0 when (i) holds and inf when it does not; raises if (ii)
    fails.  Nothing is sampled; `samples` is ignored and stays only because
    the acceptance suite (tests/test_acceptance.py), which is kept fixed,
    passes it.
    """
    if k is None:
        k = classify(c)
    probes = (Poly.rational([1]), Poly.rational([1, 1]), Poly.rational([1, 1, 1]), Poly.rational([-2, 0, 1, 3]))
    for P in probes:
        if c.A.kind == RATIONAL:
            if step(P, c) != c.A * P.derivative() + c.B * P:
                raise AssertionError("step output differs from A P' + B P")
    nd = _log_derivative(k.form)
    return 0.0 if nd and nd[0] * c.A == c.B * nd[1] else math.inf


def _log_derivative(form):
    """(N, D) with N/D the derivative of log|K| = `form`, summed term by term:
    e/(x - s) per log term, g(2x + p)/(x^2 + px + q) per quadratic log,
    lin + 2 quad x, -d/(x - s)^2 per pole and c/(x^2 + px + q) per arctan.
    The terms at two conjugate surds a +- b sqrt(d), with exponents u +- v sqrt(d),
    sum to (2u(x - a) + 2vbd) / ((x - a)^2 - b^2 d).  None when a surd term
    has no conjugate partner in the form."""
    P = Poly.rational
    terms = [(P([form.lin, 2 * form.quad]), P([1]))]
    by_point = dict(form.log_terms)
    for s, e in form.log_terms:
        if not isinstance(s, Surd):
            terms.append((P([e]), P([-s, 1])))
            continue
        u, v = (e.a, e.b) if isinstance(e, Surd) else (e, 0)
        if (v and e.d != s.d) or by_point.get(Surd(s.a, -s.b, s.d)) != (Surd(u, -v, s.d) if v else u):
            return None
        if s.b > 0:
            terms.append((P([2 * v * s.b * s.d - 2 * u * s.a, 2 * u]), P([s.a * s.a - s.b * s.b * s.d, -2 * s.a, 1])))
    terms += [(P([g * p, 2 * g]), P([q, p, 1])) for p, q, g in form.quad_logs]
    terms += [(P([cc]), P([q, p, 1])) for cc, p, q in form.atans]
    terms += [(P([-d]), P([s * s, -2 * s, 1])) for s, d in form.poles]
    num, den = P([]), P([1])
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return num, den
