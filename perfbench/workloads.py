"""The four benchmark workloads: their inputs and their operations.

`build(name, seed, dd)` makes a workload's inputs from the seed and
returns its operations.  `dd` holds the ddepoly modules; operations look
functions up on those modules at call time, the way ddepoly's own modules
call each other, so the traced run can wrap them in place.  Each Op runs
one user-visible computation (`run`) and checks its output (`check`, which
raises checks.CheckError); only `run` is timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

import checks as C

WIDTH = Fraction(1, 10**9)
FINE_WIDTH = Fraction(1, 10**30)


@dataclass
class Op:
    name: str
    run: object
    check: object
    known_fault: bool = False  # fails today because of a named program fault


# Paper families: parameters as the command line takes them, the case letter
# decide_case must return, and the interval the zeros must lie in
# (lo, hi, lo_closed, hi_closed; None for an infinite end).
FAMILIES = {
    "bell": dict(params={}, case="c", support=(None, Fraction(0), False, True)),
    "hermite": dict(params={}, case="a", support=(None, None, False, False)),
    "jacobi": dict(params={"alpha": "1/2", "beta": "1/2"}, case="a",
                   support=(Fraction(-1), Fraction(1), False, False)),
    "euler_frobenius": dict(params={"kappa": "1", "r": "n+1"}, case="a",
                            support=(Fraction(-1), Fraction(1), False, False)),
    "laguerre": dict(params={"alpha": "1/2"}, case="a", support=(Fraction(0), None, False, False)),
    "hyp2f1": dict(params={"b": "40", "c": "1"}, case="a", support=(Fraction(0), Fraction(1), False, False)),
}


def family_entry(name, N):
    return dict(FAMILIES[name], name=name, N=N)


# ------------------------------------------------------------------ verify-families

# Degree 14 keeps a pass near 2 s, so a run holds a dozen passes; see README.
VERIFY_DEGREE = 14


def verify_families(seed, dd):
    names = list(FAMILIES)
    random.Random(seed).shuffle(names)  # inputs are fixed; the seed orders them
    ops = []
    for name in names:
        fam = family_entry(name, VERIFY_DEGREE)
        spec = dd.families.FamilySpec(name, dict(fam["params"]))
        members = {}

        def run(spec=spec, N=fam["N"]):
            report = dd.verify.verify_sequence(spec, N)
            text = dd.documents.dump_report({"command": "verify", "report": report}, timestamp=False)
            return report, text

        def check(out, fam=fam, members=members):
            if not members:
                members.update(enumerate(C.family_members(fam["name"], fam["params"], fam["N"])))
            C.check_verify_report(out[0], out[1], fam, members, WIDTH)

        ops.append(Op(f"verify {name} N={fam['N']}", run, check))
    return ops


# ------------------------------------------------------------------ zeros-deep

DEEP_MEMBERS = (("jacobi", 34, WIDTH), ("euler_frobenius", 28, WIDTH), ("jacobi", 20, FINE_WIDTH))

# One entry per planted product: multiplicities of its rational roots, of
# its quadratic-surd root pairs, and of its complex (x^2 + c) factors.
PLANTED_SHAPES = (
    ((1, 1, 1, 1), (1,), (1,)),
    ((1, 2, 3), (2,), ()),
    ((3, 3, 1, 1, 2), (), (1,)),
    ((1, 1, 1, 1, 1, 1), (1, 1), ()),
    ((2, 2, 1, 1, 1), (3,), ()),
    ((1, 1, 1, 2), (1,), (2,)),
)


PLANTED_ROUNDS = 3  # enough seeded products that their median cost hardly depends on the seed


def planted_product(rng, shape):
    """A seeded product with known roots: returns (coefficients, planted)
    where planted lists each distinct real root with its multiplicity."""
    rat_mults, surd_mults, cplx_mults = shape
    roots = set()
    while len(roots) < len(rat_mults):
        roots.add(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
    rats = sorted(roots)
    rng.shuffle(rats)
    poly, planted = [Fraction(1)], []
    for r, m in zip(rats, rat_mults):
        poly = C.pmul(poly, _pow([-r, Fraction(1)], m))
        planted.append((r, m))
    surds = set()
    while len(surds) < len(surd_mults):
        d = rng.randint(2, 60)
        if C.rational_sqrt(Fraction(d)) is None:
            surds.add((Fraction(rng.randint(-12, 12), rng.randint(1, 4)), d))
    for (a, d), m in zip(sorted(surds), surd_mults):
        poly = C.pmul(poly, _pow([a * a - d, -2 * a, Fraction(1)], m))  # roots a +- sqrt(d)
        planted += [((a, -1, d), m), ((a, 1, d), m)]
    for m in cplx_mults:
        b, c = rng.randint(-4, 4), rng.randint(1, 20)
        poly = C.pmul(poly, _pow([Fraction(b * b + c), Fraction(2 * b), Fraction(1)], m))  # (x + b)^2 + c
    poly = C.pscale(poly, Fraction(rng.randint(1, 7), rng.randint(1, 5)))
    return poly, planted


def _pow(p, m):
    out = [Fraction(1)]
    for _ in range(m):
        out = C.pmul(out, p)
    return out


def zeros_deep(seed, dd):
    ops = []
    for name, n, width in DEEP_MEMBERS:
        f = C.family_members(name, FAMILIES[name]["params"], n)[n]
        ops.append(_isolate_op(dd, f"zeros {name} P_{n} width {float(width):.0e}", dd.poly.Poly.rational(f), width,
                               lambda rs, f=f, n=n, w=width, what=name: C.check_isolation(
                                   f, [r.interval for r in rs.roots], n, w, f"{what} P_{n}")))
    rng = random.Random(seed)
    for i, shape in enumerate(PLANTED_SHAPES * PLANTED_ROUNDS):
        f, planted = planted_product(rng, shape)
        ops.append(_isolate_op(dd, f"zeros planted #{i} degree {len(f) - 1}", dd.poly.Poly.rational(f), WIDTH,
                               lambda rs, planted=planted, i=i: C.check_planted(rs, planted, WIDTH, f"planted #{i}")))
    return ops


def _isolate_op(dd, name, poly, width, check_roots):
    """isolate_roots plus its zeros table, as the `zeros` command runs them."""

    def run():
        rs = dd.roots.isolate_roots(poly, width)
        text = dd.documents.zeros_csv([(poly.degree, i, r.interval) for i, r in enumerate(rs.roots)])
        return rs, text

    def check(out):
        check_roots(out[0])
        C.check_zeros_csv(out[1], out[0].count, name)

    return Op(name, run, check)


# ------------------------------------------------------------------ recover-classify

TABLE_DEGREE = 36
# hyp2f1(b=40, c=1) has K ~ x^(n+1) (1-x)^(39-n): case (a) holds for n <= 38 only.
DECIDE_DEGREE = 30
PLANTED_BASES = ("bell", "hermite", "laguerre", "hyp2f1")
RANDOM_PAIRS = 2000


def recover_classify(seed, dd):
    rng = random.Random(seed)
    Poly, Pair = dd.poly.Poly, dd.dde.CoefficientPair
    ops = []
    for name in FAMILIES:
        params = FAMILIES[name]["params"]
        own = C.family_members(name, params, TABLE_DEGREE)
        table = [Poly.rational(p) for p in own]

        def gen_pair(n, name=name, params=params):
            return C.family_pair(name, params, n)

        ops.append(Op(f"admits {name} to degree {TABLE_DEGREE}", lambda t=table: dd.dde.admits_dde(t),
                      lambda res, own=own, g=gen_pair, name=name: C.check_admits(res, own, g, what=name)))

        pairs = [gen_pair(n) for n in range(DECIDE_DEGREE + 1)]
        prog_pairs = [Pair(Poly.rational(A), Poly.rational(B)) for A, B in pairs]
        gamma = -own[1][0] / own[1][1]
        fam = family_entry(name, DECIDE_DEGREE)

        def decide(prog_pairs=prog_pairs, gamma=gamma):
            ks = [dd.kfactor.classify(c) for c in prog_pairs[1:]]
            specs = [dd.kfactor.boundary_zeros(k) for k in ks]
            return ks, specs, dd.kfactor.decide_case(specs, gamma, n_start=1)

        def check_decide(out, pairs=pairs, fam=fam):
            ks, specs, dec = out
            C.require(dec.case == fam["case"], f"{fam['name']}: case {dec.case!r}, expected {fam['case']!r}")
            for n, (k, s) in enumerate(zip(ks, specs), start=1):
                C.check_classification(k, s, *pairs[n], f"{fam['name']} n={n}")

        ops.append(Op(f"classify+decide {name} n=1..{DECIDE_DEGREE}", decide, check_decide))

    for name in PLANTED_BASES:
        m = rng.randint(8, 12)
        params = FAMILIES[name]["params"]
        own = C.family_members(name, params, m)
        cubic = [Fraction(rng.randint(-3, 3)) for _ in range(3)] + [Fraction(rng.choice((-2, -1, 1, 2)))]
        # P_{m+1} = C P_m' + E P_m puts P_{m+1}(x_k) / P_m'(x_k) = C(x_k) on a
        # cubic at the zeros x_k of P_m; E's x^2 term cancels the x^(m+2) term.
        E = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), -m * cubic[3]]
        own.append(C.padd(C.pmul(cubic, C.pderiv(own[m])), C.pmul(E, own[m])))
        table = [Poly.rational(p) for p in own]
        ops.append(Op(f"admits {name} planted failure at n={m}", lambda t=table: dd.dde.admits_dde(t),
                      lambda res, own=own, name=name, params=params, m=m: C.check_admits(
                          res, own, lambda n: C.family_pair(name, params, n), fail_at=m, what=f"planted {name}")))

    for i in range(RANDOM_PAIRS):
        A, B = _random_pair(rng, PAIR_KINDS[i % len(PAIR_KINDS)])
        pair = Pair(Poly.rational(A), Poly.rational(B))

        def classify(pair=pair):
            k = dd.kfactor.classify(pair)
            return k, dd.kfactor.boundary_zeros(k)

        ops.append(Op(f"classify random pair #{i}", classify,
                      lambda out, A=A, B=B, i=i: C.check_classification(out[0], out[1], A, B, f"random pair #{i}")))
    return ops


# The kind of A for each random pair, in a fixed cycle; only the
# coefficients are seeded.  classify costs about 0.15 ms on a linear A or
# one without real roots, 0.35 ms with rational roots and 0.9 ms with
# irrational ones; a seeded mix of kinds would move op_p50_s from seed to
# seed between those levels, and this cycle puts the median among the
# rational-root pairs.
PAIR_KINDS = ("linear", "complex", "rational", "rational", "rational", "irrational")


def _random_pair(rng, kind):
    """A of the given kind (degree <= 2, small rational coefficients) and a
    seeded B of degree <= 1."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if kind == "linear":
        A = [q(), q() or Fraction(1)]
    elif kind == "rational":  # two rational roots, possibly equal
        A = C.pscale(C.pmul([-q(), Fraction(1)], [-q(), Fraction(1)]), q() or Fraction(1))
    else:  # a quadratic whose discriminant is negative, or positive and not a square
        while True:
            A = [q(), q(), q()]
            disc = A[1] ** 2 - 4 * A[0] * A[2]
            if A[2] and (disc < 0 if kind == "complex" else disc > 0 and C.rational_sqrt(disc) is None):
                break
    return A, C.trim([q(), q()])


# ------------------------------------------------------------------ float-mode

FREUD_T = ("-1", "0", "1")
PRECISIONS = (256, 512)
FREUD_ZEROS_N = 14


def float_mode(seed, dd):
    decimal = f"0.{random.Random(seed).randint(1, 9)}"  # one-decimal t, parsed as the command line does
    ts = [Fraction(t) for t in FREUD_T + (decimal,)]
    ops = []
    for prec in PRECISIONS:
        for t in ts:
            ops.append(Op(f"freud-demo t={t} {prec} bits", lambda t=t, p=prec: _freud_demo(dd, t, p),
                          lambda out, t=t, p=prec: _check_freud_demo(out, t, p)))
        for t in (Fraction(0), Fraction(decimal)):
            ops.append(Op(f"zeros freud t={t} N={FREUD_ZEROS_N} {prec} bits", lambda t=t, p=prec: _freud_zeros(dd, t, p),
                          lambda out, t=t, p=prec: _check_freud_zeros(out, t, p)))
    quintic = _close_root_quintic(dd)
    ops.append(Op("zeros close-root quintic 256 bits", lambda: _quintic_zeros(dd, quintic),
                  lambda out: _check_quintic(out, quintic), known_fault=True))
    return ops


def _freud_demo(dd, t, prec):
    """The freud-demo pipeline: recurrence data, the sequence, the quintic's
    zeros, coefficient recovery, the (x_k, y_k) samples and the report."""
    data = dd.freud.freud_recurrence_coeffs(t, 6, prec)
    seq = dd.freud.freud_sequence(data, 6)
    with mpmath.workprec(prec):
        width = mpmath.mpf(2) ** (-prec // 2)
    rs = dd.roots.isolate_roots(seq[5], width)
    adm = dd.dde.admits_dde(list(seq.polys), tolerance=1e-12)
    xy = dd.dde.sample_xy(seq[5], seq[6], width)
    text = dd.documents.dump_report({"command": "freud-demo", "t": t, "precision": prec,
                                     "recurrence_coefficients": list(data.a), "quintic": seq[5],
                                     "admissibility": adm}, timestamp=False)
    return data, seq, width, rs, adm, xy, text


def _check_data(data, seq, t, prec, N):
    with mpmath.workprec(prec + 32):
        tol = mpmath.mpf(2) ** (-prec // 2)
        a, tv = data.a, mpmath.mpf(t.numerator) / t.denominator
        C.require(len(a) == N + 1 and abs(a[1] / C.reference_a1(t, prec) - 1) <= tol,
                  f"t={t}: a_1 = {mpmath.nstr(a[1], 20)} differs from the reference")
        for n in range(1, N):  # string relation n = 4 a_n^2 (a_{n+1}^2 + a_n^2 + a_{n-1}^2 - t)
            r = n - 4 * a[n] ** 2 * (a[n + 1] ** 2 + a[n] ** 2 + a[n - 1] ** 2 - tv)
            C.require(abs(r) <= tol, f"t={t}: string relation residual {mpmath.nstr(r, 5)} at n={n}")
        P = [[mpmath.mpf(1)], [mpmath.mpf(0), 1 / a[1]]]  # x P_n = a_{n+1} P_{n+1} + a_n P_{n-1}
        for n in range(1, N):
            nxt = [mpmath.mpf(0)] + P[n]
            P.append([(nxt[i] - (a[n] * P[n - 1][i] if i < len(P[n - 1]) else 0)) / a[n + 1] for i in range(len(nxt))])
        for n in range(N + 1):
            got = seq[n].coeffs
            scale = max(abs(c) for c in P[n])
            C.require(len(got) <= len(P[n]) and all(abs((got[i] if i < len(got) else 0) - P[n][i]) <= tol * scale
                                                    for i in range(len(P[n]))),
                      f"t={t}: P_{n} differs from the three-term recurrence")


def _check_freud_demo(out, t, prec):
    data, seq, width, rs, adm, xy, text = out
    _check_data(data, seq, t, prec, 6)
    dps = int(prec * 0.30103) + 10
    C.check_float_roots(rs, seq[5], width, f"t={t} quintic", dps)
    C.require([e.verdict for e in adm.entries] == ["admits"] * 5 + ["fails"],
              f"t={t}: admissibility {[e.verdict for e in adm.entries]}, expected failure at n=5 only")
    with mpmath.workprec(prec + 32):
        tol = mpmath.mpf(2) ** (-prec // 2)
        for e in adm.entries[2:5]:
            n = e.n
            P, Q = seq[n].coeffs, seq[n + 1].coeffs
            got = C.padd(C.pmul(list(e.pair.A.coeffs), C.pderiv(list(P))), C.pmul(list(e.pair.B.coeffs), list(P)))
            scale = max(abs(c) for c in Q)
            C.require(all(abs((got[i] if i < len(got) else 0) - (Q[i] if i < len(Q) else 0)) <= tol * scale
                          for i in range(max(len(got), len(Q)))), f"t={t}: recovered pair at n={n} misses P_{n + 1}")
        ref = C.reference_roots(seq[5], dps)
        dP5 = C.pderiv(list(seq[5].coeffs))
        C.require(len(xy) == len(ref), f"t={t}: {len(xy)} samples for {len(ref)} zeros")
        for (x, y), z in zip(xy, ref):
            yz = C.horner(list(seq[6].coeffs), z) / C.horner(dP5, z)
            # y is held to 1e-12, not to the working precision: sample_xy takes
            # P_n' at the ambient 53 bits, so y carries ~1e-16 relative error.
            C.require(abs(x - z) <= width and abs(y - yz) <= 1e-12 * (1 + abs(yz)),
                      f"t={t}: sample ({mpmath.nstr(x, 10)}, {mpmath.nstr(y, 10)}) is off")
    C.require(json.loads(text)["command"] == "freud-demo", f"t={t}: report does not parse")


def _freud_zeros(dd, t, prec):
    """`zeros --family freud`: members P_1..P_N isolated at width 1e-9."""
    data = dd.freud.freud_recurrence_coeffs(t, FREUD_ZEROS_N, prec)
    seq = dd.freud.freud_sequence(data, FREUD_ZEROS_N)
    width = mpmath.mpf(float(WIDTH))
    rows, sets = [], []
    for n, p in enumerate(seq.polys[1:], start=1):
        rs = dd.roots.isolate_roots(p, width)
        sets.append(rs)
        rows += [(n, i, r.interval) for i, r in enumerate(rs.roots)]
    return data, seq, width, sets, dd.documents.zeros_csv(rows)


def _check_freud_zeros(out, t, prec):
    data, seq, width, sets, text = out
    _check_data(data, seq, t, prec, FREUD_ZEROS_N)
    for n, rs in enumerate(sets, start=1):
        C.check_float_roots(rs, seq[n], width, f"freud t={t} P_{n}", 40)
    C.check_zeros_csv(text, sum(range(1, FREUD_ZEROS_N + 1)), f"freud t={t}")


def _close_root_quintic(dd):
    """(x-1)(x-1-1e-14)(x-2)(x+3)x at 256 bits: five real roots, two of
    them 1e-14 apart."""
    with mpmath.workprec(256):
        coeffs = [mpmath.mpf(1)]
        for r in (1, 1 + mpmath.mpf("1e-14"), 2, -3, 0):
            coeffs = C.pmul(coeffs, [-mpmath.mpf(r), mpmath.mpf(1)])
    return dd.poly.Poly.floating(coeffs, 256)


def _quintic_zeros(dd, quintic):
    try:
        return dd.roots.isolate_roots(quintic, mpmath.mpf("1e-9"))
    except dd.roots.IllConditionedError as exc:  # an honest refusal is a correct answer
        return exc


def _check_quintic(out, quintic):
    if isinstance(out, ArithmeticError):
        return
    C.check_float_roots(out, quintic, mpmath.mpf("1e-9"), "close-root quintic", 60)


BUILDERS = {
    "verify-families": verify_families,
    "zeros-deep": zeros_deep,
    "recover-classify": recover_classify,
    "float-mode": float_mode,
}


def build(name, seed, dd):
    return BUILDERS[name](seed, dd)
