"""Output checkers for the benchmark, written apart from ddepoly.

Nothing here imports ddepoly.  Exact polynomials are plain lists of
Fraction coefficients, lowest power first; roots are judged by Horner
evaluation and by this file's own bisection.  Program outputs are read
through their public attributes only (Interval.lo/hi/lo_open/hi_open,
RootSet.roots/count, report fields).  Every checker raises CheckError
with a message naming the first wrong fact it finds.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath


class CheckError(Exception):
    """A program output contradicts the independent computation."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------- exact polynomials

def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pmul(p, q):
    if not p or not q:
        return []
    out = [p[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def pscale(p, c):
    return trim([c * v for v in p])


def pderiv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def horner(p, x):
    acc = Fraction(0) if not isinstance(x, mpmath.mpf) else mpmath.mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign(v):
    return (v > 0) - (v < 0)


def deflate(p, r):
    """Quotient of p by (x - r); p(r) must be 0."""
    out = [Fraction(0)] * (len(p) - 1)
    acc = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        acc = acc * r + p[i]
        out[i - 1] = acc
    return trim(out)


def step(P, A, B):
    """One application of the recurrence: A P' + B P."""
    return padd(pmul(A, pderiv(P)), pmul(B, P))


def coeffs_of(poly):
    """Exact coefficient list of a program polynomial (rational kind)."""
    return trim(Fraction(c) for c in poly.coeffs)


# ---------------------------------------------------------------- families
# Coefficient pairs (A_n, B_n) of the paper's families, written from their
# definitions; the benchmark generates its reference members from these.

def family_pair(kind, params, n):
    F = Fraction
    if kind == "bell":
        return [F(0), F(1)], [F(0), F(1)]
    if kind == "hermite":
        return [F(-1)], [F(0), F(2)]
    if kind == "laguerre":
        a = F(params["alpha"])
        return [F(0), F(1, n + 1)], [(a + n + 1) / (n + 1), F(-1, n + 1)]
    if kind == "jacobi":
        a, b = F(params["alpha"]), F(params["beta"])
        s = 2 * n + 2 + a + b
        d1 = 2 * (n + 1) * (n + 1 + a + b)
        return [-s / d1, F(0), s / d1], [(a - b) / (2 * (n + 1)), s / (2 * (n + 1))]
    if kind == "euler_frobenius":  # kappa = 1, r_n = n + 1
        return [F(1), F(0), F(-1)], [F(0), F(-2 * (n + 1))]
    if kind == "hyp2f1":
        b, c = F(params["b"]), F(params["c"])
        return [F(0), F(1), F(-1)], [n + c, -b]
    raise ValueError(f"no reference pair for {kind!r}")


def family_members(kind, params, N):
    """P_0..P_N by the recurrence, in exact arithmetic."""
    P = [[Fraction(1)]]
    for n in range(N):
        A, B = family_pair(kind, params, n)
        P.append(step(P[-1], A, B))
    return P


# ---------------------------------------------------------------- exact intervals

class Iv:
    """An exact interval with openness flags, read off a program Interval."""

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo, hi, lo_open, hi_open):
        self.lo, self.hi, self.lo_open, self.hi_open = lo, hi, lo_open, hi_open

    @classmethod
    def of(cls, iv):
        require(isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction),
                f"interval {iv!r} has non-rational ends")
        if iv.lo == iv.hi:
            return cls(iv.lo, iv.hi, False, False)
        return cls(iv.lo, iv.hi, iv.lo_open, iv.hi_open)

    @property
    def is_point(self):
        return self.lo == self.hi

    def contains(self, x):
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        return not (x > self.hi or (x == self.hi and self.hi_open))

    def left_of(self, other):
        """Every point of self lies below every point of other."""
        if self.hi != other.lo:
            return self.hi < other.lo
        return self.hi_open or other.lo_open

    def __repr__(self):
        return f"{'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"


def brackets(f, iv):
    """True when iv provably holds a root of the squarefree polynomial f.

    A point must be a root.  Otherwise an endpoint root inside the
    interval counts, and an excluded endpoint root is divided out, since
    (x - e) keeps one sign on the interval; the rest must change sign.
    """
    if iv.is_point:
        return horner(f, iv.lo) == 0
    g = f
    for e, inside in ((iv.lo, not iv.lo_open), (iv.hi, not iv.hi_open)):
        if horner(g, e) == 0:
            if inside:
                return True
            g = deflate(g, e)
    return sign(horner(g, iv.lo)) * sign(horner(g, iv.hi)) < 0


def bisect(f, iv):
    """Halve an interval known to hold exactly one root of f."""
    if iv.is_point:
        return iv
    m = (iv.lo + iv.hi) / 2
    if horner(f, m) == 0:
        return Iv(m, m, False, False)
    left = Iv(iv.lo, m, iv.lo_open, False)
    return left if brackets(f, left) else Iv(m, iv.hi, True, iv.hi_open)


def check_disjoint_sorted(ivs, what):
    for a, b in zip(ivs, ivs[1:]):
        require(a.left_of(b), f"{what}: intervals {a} and {b} overlap or are out of order")


def check_isolation(f, intervals, expected, width, what):
    """Intervals isolate the real roots of squarefree f: each holds a root,
    they are disjoint and sorted, none is wider than `width`, and there are
    `expected` of them (so each holds exactly one)."""
    ivs = [Iv.of(iv) for iv in intervals]
    require(len(ivs) == expected, f"{what}: {len(ivs)} intervals, expected {expected}")
    for iv in ivs:
        require(brackets(f, iv), f"{what}: {iv} holds no root")
        require(iv.hi - iv.lo <= width, f"{what}: {iv} is wider than {width}")
    check_disjoint_sorted(ivs, what)
    return ivs


# ---------------------------------------------------------------- containment, interlacing

def check_containment(f, ivs, support, what, limit=400):
    """Each root lies in support = (a, b, a_closed, b_closed); None is infinite."""
    a, b, a_closed, b_closed = support
    for iv in ivs:
        for _ in range(limit):
            below = a is not None and (iv.hi < a or (iv.hi == a and (iv.hi_open or not a_closed)))
            above = b is not None and (iv.lo > b or (iv.lo == b and (iv.lo_open or not b_closed)))
            require(not below and not above, f"{what}: root in {iv} lies outside the support")
            inside_a = a is None or iv.lo > a or (iv.lo == a and (iv.lo_open or a_closed))
            inside_b = b is None or iv.hi < b or (iv.hi == b and (iv.hi_open or b_closed))
            if inside_a and inside_b:
                break
            iv = bisect(f, iv)
        else:
            raise CheckError(f"{what}: could not place the root in {iv} against the support")


def interlace_verdict(p, ps, q, qs, limit=400):
    """Own verdict on whether roots of p (n of them) and q (n + 1) alternate:
    'strict', 'weak-shared-endpoint' (a shared root at an extreme) or 'fail'.
    Overlapping intervals are refined by bisection until they separate or
    coincide at a common exact root."""
    ps, qs = list(ps), list(qs)
    for _ in range(limit):
        clash = False
        for i in range(len(ps)):
            for j in range(len(qs)):
                a, b = ps[i], qs[j]
                if a.left_of(b) or b.left_of(a) or (a.is_point and b.is_point):
                    continue
                clash = True
                if a.is_point and horner(q, a.lo) == 0:
                    qs[j] = a
                elif b.is_point and horner(p, b.lo) == 0:
                    ps[i] = b
                else:
                    ps[i], qs[j] = bisect(p, a), bisect(q, b)
        if not clash:
            break
    else:
        raise CheckError("interlacing: roots of adjacent members could not be separated")
    shared = {iv.lo for iv in ps if iv.is_point} & {iv.lo for iv in qs if iv.is_point}
    items = sorted([(iv.lo, "p") for iv in ps if not (iv.is_point and iv.lo in shared)]
                   + [(iv.lo, "q") for iv in qs if not (iv.is_point and iv.lo in shared)]
                   + [(x, "s") for x in shared])
    labels = [lab for _, lab in items]
    if labels and labels[0] == "s":
        labels[0:1] = ["q", "p"]
    if labels and labels[-1] == "s":
        labels[-1:] = ["p", "q"]
    pattern = ["q", "p"] * len(ps) + ["q"]
    if labels != pattern:
        return "fail"
    return "weak-shared-endpoint" if shared else "strict"


# ---------------------------------------------------------------- verify reports

def check_verify_report(report, text, fam, members, width):
    """A verify_sequence report and its dumped JSON against own members."""
    name = fam["name"]
    require(report.decision is not None and report.decision.case == fam["case"],
            f"{name}: case {getattr(report.decision, 'case', None)!r}, expected {fam['case']!r}")
    require(report.agreement and not report.failures, f"{name}: disagreement {report.failures}")
    N = fam["N"]
    require([r.n for r in report.records] == list(range(1, N + 1)), f"{name}: records do not cover 1..{N}")
    located = {}
    for rec in report.records:
        f = members[rec.n]
        require(rec.real_simple and rec.degree == rec.n, f"{name}: P_{rec.n} not reported real-simple")
        ivs = check_isolation(f, rec.zeros, rec.n, width, f"{name} P_{rec.n}")
        check_containment(f, ivs, fam["support"], f"{name} P_{rec.n}")
        require(rec.containment == "ok", f"{name}: P_{rec.n} containment {rec.containment!r}")
        located[rec.n] = ivs
    for rec in report.records[:-1]:
        n = rec.n
        own = interlace_verdict(members[n], located[n], members[n + 1], located[n + 1])
        require(own != "fail", f"{name}: P_{n} and P_{n + 1} do not interlace")
        require(rec.interlace_with_next == own,
                f"{name}: P_{n}/P_{n + 1} verdict {rec.interlace_with_next!r}, own {own!r}")
    doc = json.loads(text)
    require("timestamp" not in doc, f"{name}: report carries a timestamp")
    require(doc["report"]["decision"]["case"] == fam["case"] and doc["report"]["agreement"] is True
            and len(doc["report"]["records"]) == N, f"{name}: dumped report differs from the report")


# ---------------------------------------------------------------- planted roots

def cmp_surd(x, a, s, d):
    """Sign of x - (a + s*sqrt(d)) for rational x, a; s = +-1; d not a square."""
    u = x - a
    if s > 0:
        return -1 if u < 0 or u * u < d else 1
    return 1 if u > 0 or u * u < d else -1


def planted_in(iv, root):
    """Whether a planted root (Fraction, or (a, s, d) for a + s*sqrt(d)) lies in iv."""
    if isinstance(root, Fraction):
        return iv.contains(root)
    a, s, d = root
    if iv.is_point:
        return False
    return cmp_surd(iv.lo, a, s, d) < 0 < cmp_surd(iv.hi, a, s, d)


def check_planted(rootset, planted, width, what):
    """isolate_roots output against a planted real root set [(root, mult)]."""
    ivs = [Iv.of(r.interval) for r in rootset.roots]
    require(rootset.count == len(ivs) == len(planted),
            f"{what}: {len(ivs)} roots returned, {len(planted)} planted")
    check_disjoint_sorted(ivs, what)
    for iv, r in zip(ivs, rootset.roots):
        inside = [(root, m) for root, m in planted if planted_in(iv, root)]
        require(len(inside) == 1, f"{what}: {iv} holds {len(inside)} planted roots")
        require(inside[0][1] == r.multiplicity,
                f"{what}: {iv} multiplicity {r.multiplicity}, planted {inside[0][1]}")
        require(iv.hi - iv.lo <= width, f"{what}: {iv} is wider than {width}")
    require(rootset.squarefree == all(m == 1 for _, m in planted), f"{what}: wrong squarefree flag")


def check_zeros_csv(text, rows, what):
    lines = text.splitlines()
    require(lines and lines[0] == "n,index,lo,hi,mid", f"{what}: bad CSV header")
    require(len(lines) == rows + 1, f"{what}: {len(lines) - 1} CSV rows, expected {rows}")
    for line in lines[1:]:
        lo, hi, mid = (float(v) for v in line.split(",")[2:])
        require(lo <= mid <= hi, f"{what}: CSV row {line!r} has mid outside [lo, hi]")


# ---------------------------------------------------------------- coefficient recovery

def check_admits(result, table, gen_pair, fail_at=None, what=""):
    """admits_dde output: every entry before fail_at admits with a pair that
    reproduces P_{n+1} exactly (and equals the generating pair for n >= 3);
    entry fail_at, when given, is rejected."""
    last = len(table) - 2 if fail_at is None else fail_at
    require([e.n for e in result.entries] == list(range(last + 1)), f"{what}: entries do not cover 0..{last}")
    for e in result.entries:
        n = e.n
        if n == fail_at:
            require(e.verdict == "fails", f"{what}: planted failure at n={n} reported {e.verdict!r}")
            continue
        require(e.verdict == "admits" and e.pair is not None, f"{what}: n={n} reported {e.verdict!r}")
        A, B = coeffs_of(e.pair.A), coeffs_of(e.pair.B)
        require(step(table[n], A, B) == table[n + 1], f"{what}: pair at n={n} does not reproduce P_{n + 1}")
        if n >= 3:
            gA, gB = gen_pair(n)
            require(e.unique and A == trim(gA) and B == trim(gB), f"{what}: pair at n={n} is not the generating pair")


def rational_sqrt(f):
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    return Fraction(rn, rd) if rn * rn == f.numerator and rd * rd == f.denominator else None


def simple_rational_roots(A):
    A = trim(A)
    if len(A) == 2:
        return [-A[0] / A[1]]
    if len(A) == 3:
        disc = A[1] * A[1] - 4 * A[2] * A[0]
        s = rational_sqrt(disc) if disc > 0 else None
        if s is not None:
            return [(-A[1] - s) / (2 * A[2]), (-A[1] + s) / (2 * A[2])]
    return []


def check_classification(k, spec, A, B, what):
    """Residues and vanishing points of K at the simple rational roots of A.

    Near a simple root r, |K| ~ |x - r|^e with e = B(r)/A'(r), and A/K ~
    |x - r|^(1 - e); so K vanishes there iff e > 0 and A/K iff e < 1."""
    for r in simple_rational_roots(A):
        e = horner(B, r) / horner(pderiv(A), r)
        require(k.exponent_at(r) == e, f"{what}: exponent at {r} is {k.exponent_at(r)}, B/A' gives {e}")
        for zeros, vanish, name in ((spec.zeros_of_k, e > 0, "K"), (spec.zeros_of_a_over_k, e < 1, "A/K")):
            hit = [z for z in zeros if isinstance(z.point, Fraction) and z.point == r]
            require(len(hit) == (1 if vanish else 0) and all(z.sides == "both" for z in hit),
                    f"{what}: {name} {'should' if vanish else 'should not'} vanish at {r}")
    for z in spec.zeros_of_k:
        if isinstance(z.point, Fraction):
            require(horner(A, z.point) == 0, f"{what}: K vanishes at {z.point}, which is not a root of A")


# ---------------------------------------------------------------- float mode

_REFS = {}


def reference_roots(poly, dps):
    """Real roots of a big-float polynomial by mpmath.polyroots, memoized."""
    key = (poly.coeffs, dps)
    if key not in _REFS:
        with mpmath.workdps(dps):
            zs = mpmath.polyroots(list(reversed(poly.coeffs)), maxsteps=400, extraprec=4 * dps)
            tol = mpmath.mpf(10) ** (-dps // 2)
            _REFS[key] = sorted(mpmath.re(z) for z in zs if abs(mpmath.im(z)) <= tol * (1 + abs(z)))
    return _REFS[key]


def check_float_roots(rootset, poly, width, what, dps):
    """Each returned interval holds one real root found by mpmath.polyroots,
    and every such root is returned."""
    ref = reference_roots(poly, dps)
    require(rootset.count == len(rootset.roots) == len(ref),
            f"{what}: {rootset.count} roots returned, mpmath.polyroots finds {len(ref)} real roots")
    with mpmath.workdps(dps):
        slack = mpmath.mpf(10) ** (-dps // 2)
        for r, z in zip(rootset.roots, ref):
            iv = r.interval
            require(iv.lo - slack <= z <= iv.hi + slack and iv.hi - iv.lo <= width * (1 + slack),
                    f"{what}: interval [{mpmath.nstr(iv.lo, 15)}, {mpmath.nstr(iv.hi, 15)}] misses root {mpmath.nstr(z, 15)}")


def reference_a1(t, prec):
    """a_1(t) = sqrt(m_2 / m_0) for the weight exp(-x^4 + 2 t x^2): at t = 0
    from mpmath.gamma (m_2 / m_0 = Gamma(3/4) / Gamma(1/4)), otherwise from
    mpmath.quad of both moments over the half line."""
    key = ("a1", t, prec)
    if key not in _REFS:
        with mpmath.workprec(prec // 2 + 32):  # the check asks for 2^(-prec/2)
            tv = mpmath.mpf(t.numerator) / t.denominator
            if tv == 0:
                a1sq = mpmath.gamma(mpmath.mpf(3) / 4) / mpmath.gamma(mpmath.mpf(1) / 4)
            else:
                def w(x):
                    return mpmath.exp(-(x ** 4) + 2 * tv * x * x)
                a1sq = mpmath.quad(lambda x: x * x * w(x), [0, 1, 2, mpmath.inf]) / mpmath.quad(w, [0, 1, 2, mpmath.inf])
            _REFS[key] = mpmath.sqrt(a1sq)
    return _REFS[key]
