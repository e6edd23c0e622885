"""Checker self-test: each checker accepts a real output and rejects a
deliberately corrupted copy of it.

    python3 perfbench/selftest.py      (from the repository root)

run.py also calls `problems(dd)` once per run; a checker that cannot tell
a corrupted output from a correct one makes the run incorrect.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction

import mpmath

import checks as C
import workloads as W


def _cases(dd):
    """(label, checker, good output, corrupted output) for each corruption."""
    Poly = dd.poly.Poly
    f = C.pmul(C.pmul([Fraction(-1), Fraction(1)], [Fraction(-2), Fraction(1)]), [Fraction(3), Fraction(1)])
    rs = dd.roots.isolate_roots(Poly.rational(f), W.WIDTH)

    def isolation(out):
        C.check_isolation(f, [r.interval for r in out.roots], 3, W.WIDTH, "cubic")

    first = rs.roots[0]
    shifted = replace(first, interval=replace(first.interval, lo=first.interval.lo + Fraction(1, 2),
                                              hi=first.interval.hi + Fraction(1, 2)))
    yield "shifted interval", isolation, rs, replace(rs, roots=(shifted,) + rs.roots[1:])
    yield "dropped root", isolation, rs, replace(rs, roots=rs.roots[1:], count=2)

    planted = [(Fraction(1), 1), (Fraction(2), 1), (Fraction(-3), 1)]
    yield ("dropped planted root", lambda out: C.check_planted(out, planted, W.WIDTH, "cubic"),
           rs, replace(rs, roots=rs.roots[:-1], count=2))

    fam = W.family_entry("hermite", 4)
    members = dict(enumerate(C.family_members("hermite", {}, 4)))
    report = dd.verify.verify_sequence(dd.families.FamilySpec("hermite"), 4)
    text = dd.documents.dump_report({"command": "verify", "report": report}, timestamp=False)
    wrong = replace(report, decision=replace(report.decision, case="b"))
    yield ("wrong case letter", lambda out: C.check_verify_report(out[0], out[1], fam, members, W.WIDTH),
           (report, text), (wrong, text))
    rec = report.records[1]
    swapped = replace(rec, zeros=tuple(replace(iv, lo=-iv.hi, hi=-iv.lo) for iv in rec.zeros))
    yield ("interval moved off its root", lambda out: C.check_verify_report(out[0], out[1], fam, members, W.WIDTH),
           (report, text), (replace(report, records=report.records[:1] + (swapped,) + report.records[2:]), text))

    own = C.family_members("hermite", {}, 6)
    res = dd.dde.admits_dde([Poly.rational(p) for p in own])

    def admits(out, fail_at=None):
        C.check_admits(out, own, lambda n: C.family_pair("hermite", {}, n), fail_at=fail_at, what="hermite")

    e = res.entries[4]
    bad = replace(e, pair=dd.dde.CoefficientPair(e.pair.A, e.pair.B + Poly.rational([1])))
    yield "pair that does not reproduce P_{n+1}", admits, res, replace(res, entries=res.entries[:4] + (bad,) + res.entries[5:])
    yield ("planted failure admitted", lambda out: admits(out, fail_at=4),
           replace(res, entries=res.entries[:4] + (replace(e, verdict="fails", pair=None),)), replace(res, entries=res.entries[:5]))

    pair = dd.dde.CoefficientPair(Poly.rational([-2, 1, 1]), Poly.rational([1, 3]))  # A = (x - 1)(x + 2)
    k = dd.kfactor.classify(pair)
    spec = dd.kfactor.boundary_zeros(k)
    A, B = [Fraction(-2), Fraction(1), Fraction(1)], [Fraction(1), Fraction(3)]
    other = dd.kfactor.classify(dd.dde.CoefficientPair(Poly.rational([-2, 1, 1]), Poly.rational([1, 2])))
    yield ("wrong residue", lambda out: C.check_classification(out[0], out[1], A, B, "pair"),
           (k, spec), (other, dd.kfactor.boundary_zeros(other)))

    with mpmath.workprec(256):
        fq = dd.poly.Poly.floating([-6, 11, -6, 1], 256)  # (x-1)(x-2)(x-3)
    frs = dd.roots.isolate_roots(fq, mpmath.mpf("1e-9"))
    r0 = frs.roots[0]
    moved = replace(r0, interval=replace(r0.interval, lo=r0.interval.lo + mpmath.mpf("1e-6"),
                                         hi=r0.interval.hi + mpmath.mpf("1e-6")))
    yield ("shifted float interval", lambda out: C.check_float_roots(out, fq, mpmath.mpf("1e-9"), "float cubic", 40),
           frs, replace(frs, roots=(moved,) + frs.roots[1:]))


def problems(dd):
    """Descriptions of checkers that reject good output or accept a corruption."""
    found = []
    for label, check, good, corrupted in _cases(dd):
        try:
            check(good)
        except C.CheckError as exc:
            found.append(f"{label}: checker rejects the real output ({exc})")
        try:
            check(corrupted)
        except C.CheckError:
            continue
        found.append(f"{label}: checker accepts the corrupted output")
    return found


if __name__ == "__main__":
    from run import load_program

    dd = load_program()
    labels = [label for label, *_ in _cases(dd)]
    bad = problems(dd)
    for label in labels:
        print(("FAIL " if any(b.startswith(label + ":") for b in bad) else "ok   ") + label)
    for b in bad:
        print(b, file=sys.stderr)
    sys.exit(1 if bad else 0)
