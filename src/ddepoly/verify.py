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
    format_scalar,
    is_finite,
    to_mpf,
)
from .roots import Interval, _Isolator, interlaces, is_real_simple, isolate_roots, sturm_count


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
    are exact surds.  The report carries a numeric flag when the data are
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
    # one Sturm chain per rational member serves all of its exact checks
    isos = {n: _Isolator(seq[n]) for n in range(1, usable + 1) if seq[n].kind == RATIONAL}
    if not decision.ok:
        failures.extend(f"case ({case}) hypothesis fails: {why}" for case, why in decision.diagnosis.items())
        records = tuple(_empirical_record(seq, n, usable, None, width, isos) for n in range(1, usable + 1))
        return VerificationReport(family, N, decision, records, False, tuple(failures), numeric,
                                  seq.collapsed, seq.truncated_at)

    records = []
    for n in range(1, usable + 1):
        bounds = None
        if decision.containment is not None and n - 1 < len(decision.containment):
            bounds = decision.containment[n - 1]
        rec = _empirical_record(seq, n, usable, bounds, width, isos)
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


def _empirical_record(seq, n, usable, bounds, width, isos):
    p, iso = seq[n], isos.get(n)
    chk = is_real_simple(p, iso=iso)
    zeros = ()
    containment = "skipped"
    containment_witness = None
    interlace = None
    interlace_witness = None
    if chk.ok:
        if bounds is not None:
            containment_witness = _check_containment(p, bounds, iso)
            containment = "fail" if containment_witness else "ok"
        else:
            containment = "not-claimed"
        zeros = tuple(r.interval for r in isolate_roots(p, width, iso=iso).roots)
        if n < usable:
            try:
                rep = interlaces(p, seq[n + 1], p_iso=iso, q_iso=isos.get(n + 1))
                interlace = rep.verdict
                interlace_witness = rep.witness
            except ValueError as exc:  # the next member may fail the preconditions
                interlace = "fail"
                interlace_witness = str(exc)
    return SequenceRecord(n, p.degree, chk.ok, chk.witness, zeros, containment,
                          containment_witness, interlace, interlace_witness)


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
