import hashlib
import random
from fractions import Fraction
from math import lcm

import mpmath
import pytest

from ddepoly.dde import (
    CoefficientPair,
    CoefficientRule,
    CoefficientTable,
    NonSimpleZerosError,
    _eliminate,
    admits_dde,
    generate,
    sample_xy,
    step,
)
from ddepoly.families import FamilySpec, coefficient_source
from ddepoly.poly import _PRIME, KindMismatchError, Poly
from sympy_oracle import gcd

P = Poly.rational

HERMITE = CoefficientRule(lambda n: CoefficientPair(P([-1]), P([0, 2])), name="hermite")


def hermite_oracle(N):
    """Three-term route: H_{n+1} = 2x H_n - 2n H_{n-1}."""
    hs = [P([1]), P([0, 2])]
    for n in range(1, N):
        hs.append(P([0, 2]) * hs[n] - (2 * n) * hs[n - 1])
    return hs[: N + 1]


def stirling_oracle(n):
    """Set-partition route: S(n+1,k) = k S(n,k) + S(n,k-1)."""
    row = [1]
    for _ in range(n):
        nxt = [0] * (len(row) + 1)
        for k, v in enumerate(row):
            nxt[k] += k * v
            nxt[k + 1] += v
        row = nxt
    return P(row)


def test_step_hermite_first():
    assert step(P([1]), HERMITE.pair(0)) == P([0, 2])


def test_step_hermite_second():
    assert step(P([0, 2]), HERMITE.pair(1)) == hermite_oracle(2)[2]
    assert hermite_oracle(2)[2] == P([-2, 0, 4])


def test_step_degree_collapse():
    out = step(P([0, 1]), CoefficientPair(P([0, 0, 1]), P([0, -1])))
    assert out.is_zero


def _random_poly(rng, degree, bits):
    """degree + 1 random rationals with up to `bits`-bit numerators and
    denominators, some integers and some zeros; degree -1 is the zero polynomial."""
    def q():
        r = rng.random()
        if r < 0.15:
            return Fraction(0)
        if r < 0.3:
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))
    return P([q() for _ in range(degree + 1)])


def test_step_is_a_times_p_prime_plus_b_times_p():
    rng = random.Random(29)
    cases = [(P([]), P([0, 1]), P([1, 2, 3])), (P([1, 1]), P([]), P([1, 2, 3])), (P([]), P([]), P([5])),
             (P([0, 0, 3]), P([1, 1]), P([7])), (P([0, 0, 3]), P([1, 1]), P([])),
             (P([Fraction(1, 3**80), 1]), P([Fraction(2**90, 7**40)]), P([Fraction(1, 11**60), 0, Fraction(5, 13**50)]))]
    for _ in range(300):
        bits = rng.choice([2, 8, 64, 256])
        cases.append(tuple(_random_poly(rng, rng.randint(-1, hi), bits) for hi in (2, 1, 14)))
    for A, B, Pn in cases:
        c = CoefficientPair(A, B)
        out = step(Pn, c)
        assert out == c.A * Pn.derivative() + c.B * Pn
        assert out.kind == "rational" and out.prec is None and all(type(v) is Fraction for v in out.coeffs)


@pytest.mark.parametrize("A, B", [(Poly.floating([]), P([1, 2])), (P([1]), Poly.floating([])),
                                  (Poly.floating([]), P([]))])
@pytest.mark.parametrize("Pn", [P([1, 2, 3]), P([4]), P([])])
def test_step_refuses_a_float_zero_beside_rational_data(A, B, Pn):
    with pytest.raises(KindMismatchError):
        step(Pn, CoefficientPair(A, B))


def test_pair_degree_bounds():
    with pytest.raises(ValueError):
        CoefficientPair(P([0, 0, 0, 1]), P([1]))
    with pytest.raises(ValueError):
        CoefficientPair(P([1]), P([0, 0, 1]))


def test_generate_bell_matches_stirling():
    bell = CoefficientRule(lambda n: CoefficientPair(P([0, 1]), P([0, 1])))
    seq = generate(bell, 3)
    assert list(seq.polys) == [stirling_oracle(n) for n in range(4)]
    assert seq[3] == P([0, 1, 3, 1])


def test_generate_hermite_matches_recurrence():
    seq = generate(HERMITE, 5)
    assert list(seq.polys) == hermite_oracle(5)


def test_generate_truncates_on_zero():
    src = CoefficientTable([CoefficientPair(P([1]), Poly.zero())])
    seq = generate(src, 1)
    assert seq.truncated_at == 1
    assert "zero polynomial" in seq.diagnostic


def test_generate_flags_collapse():
    # A = x^2, B = -x kills the degree at the first step but only flags it
    src = CoefficientTable(
        [
            CoefficientPair(Poly.zero(), P([0, 1])),  # P1 = x
            CoefficientPair(P([0, 0, 1]), P([1, -1])),  # P2 = x^2 + (1-x)x = x, degree collapse
        ]
    )
    seq = generate(src, 2)
    assert seq.truncated_at is None
    assert seq.collapsed == (2,)


def test_admits_hermite_table():
    seq = generate(HERMITE, 6)
    res = admits_dde(list(seq.polys))
    assert res.all_admit and not res.numeric
    for e in res.entries:
        if e.n >= 2:
            assert e.pair == CoefficientPair(P([-1]), P([0, 2]))
        if e.n >= 3:
            assert e.unique
        assert step(seq[e.n], e.pair) == seq[e.n + 1]


def test_admits_planted_products():
    polys = [P([1])]
    for n in range(1, 7):
        polys.append(polys[-1] * P([-n, 1]))
    res = admits_dde(polys)
    assert res.all_admit
    for e in res.entries:
        if e.n >= 2:
            assert e.pair.A.is_zero
            assert e.pair.B == P([-(e.n + 1), 1])
        assert step(polys[e.n], e.pair) == polys[e.n + 1]


def test_admits_rejects_bad_start():
    with pytest.raises(ValueError):
        admits_dde([P([2]), P([0, 1])])


def test_admits_skips_degenerate_degree():
    polys = [P([1]), P([0, 1]), P([-1, 0, 1]), P([2, 0, 0, 0, 1]), P([0, 0, 0, 0, 0, 1])]
    res = admits_dde(polys)
    assert res.entry(3).verdict == "skipped-degenerate"  # deg P_3 = 4
    assert "deg" in res.entry(3).witness


def test_admits_skips_repeated_roots():
    polys = [P([1]), P([0, 1]), P([0, 0, 1]), P([0, 0, 0, 1])]  # x^2 has a double root
    res = admits_dde(polys)
    assert res.entry(2).verdict == "skipped-degenerate"
    assert "repeated" in res.entry(2).witness


def test_admits_builds_no_fraction_gcd(monkeypatch):
    # the repeated-root test runs on integer vectors, never through Poly.gcd
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda self, other: calls.append(self) or gcd(self, other))
    for kind in ("hermite", "bell"):
        seq = generate(coefficient_source(FamilySpec(kind)), 20)
        assert admits_dde(list(seq.polys)).all_admit, kind
    assert not calls


def test_squarefree_members_build_no_chain(monkeypatch):
    # gcd(P_n, P_n') modulo the certificate's prime, taken on the even part
    # of a member with parity, is constant for every member, which proves it
    # squarefree, so no remainder chain is built
    import ddepoly.poly as poly

    chains = []
    prs = poly._prs
    monkeypatch.setattr(poly, "_prs", lambda a, b: chains.append(a) or prs(a, b))
    for kind in ("hermite", "bell"):
        seq = generate(coefficient_source(FamilySpec(kind)), 20)
        assert admits_dde(list(seq.polys)).all_admit, kind
    assert not chains


def test_repeated_root_skip_matches_gcd_oracle():
    # seeded tables of products of small rational linear factors, half of the
    # members with a planted double root, all under random rational scales
    rng = random.Random(17)
    repeated_seen = simple_seen = 0
    for _ in range(80):
        N = rng.randint(3, 9)
        table = [P([1])]
        for n in range(1, N + 1):
            roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            if n >= 2 and rng.random() < 0.5:
                roots[rng.randrange(1, n)] = roots[0]
            p = P([Fraction(rng.choice([1, -2, 3, -5]), rng.choice([1, 2, 7]))])
            for r in roots:
                p = p * P([-r, 1])
            table.append(p)
        res = admits_dde(table)
        for n in range(2, N):
            Pn, e = table[n], res.entry(n)
            repeated = gcd(Pn, Pn.derivative()).degree > 0
            skipped = e.verdict == "skipped-degenerate" and e.witness == f"P_{n} has repeated roots"
            assert skipped == repeated, (table, n)
            repeated_seen += repeated
            simple_seen += not repeated
    assert repeated_seen > 50 and simple_seen > 50


def golden_tables(seed=29, count=360):
    """Seeded rational tables: sequences of random small-rational pairs with
    each member under a random scale, and in four of every five tables one
    member changed: P_(m+1) perturbed below degree m (an inconsistent
    equation), a planted double root in P_m, P_m of lower degree, or
    P_(m+1) = B P_m with deg B = 2 (a forced deg B)."""
    rng = random.Random(seed)

    def q(k=4):
        return Fraction(rng.randint(-k, k), rng.randint(1, 3))

    tables = []
    while len(tables) < count:
        N = rng.randint(3, 10)
        pairs = [CoefficientPair(Poly.zero(), P([q(), q() or 1]))]
        pairs += [CoefficientPair(P([q(), q(), q()]), P([q(), q() or 1])) for _ in range(N)]
        seq = generate(CoefficientTable(pairs), N)
        if seq.collapsed or seq.truncated_at:
            continue
        table = [p.scale(Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3, 7]))) if n else p
                 for n, p in enumerate(seq.polys)]
        kind, m = len(tables) % 5, rng.randint(2, N - 1)
        if kind == 1:
            table[m + 1] = table[m + 1] + P([q() for _ in range(rng.randint(1, m))])
        elif kind == 2:
            r = q()
            table[m] = P([r * r, -2 * r, 1]) * P([q() for _ in range(m - 2)] + [q() or 1])
        elif kind == 3:
            table[m] = P([q() for _ in range(rng.randint(1, m))])
        elif kind == 4:
            table[m + 1] = P([q(), q(), q() or 1]) * table[m]
        if not any(p.is_zero for p in table):
            tables.append(table)
    return tables


def test_admits_golden_corpus():
    # every verdict, pair, uniqueness flag and witness text of 360 tables
    results = [repr(admits_dde(t)) for t in golden_tables()]
    text = "\n".join(results)
    for witness in ("inconsistent equation 0 = ", "forced deg B = 2", "has repeated roots", "deg P_"):
        assert witness in text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ADMITS


GOLDEN_ADMITS = "5d7fb964b2a2d5672e47f6eaf5b2ca9d68afd1d9be868d9bbf48b3421d728428"

BENCH_FAMILIES = [("bell", {}), ("hermite", {}), ("jacobi", {"alpha": "1/2", "beta": "1/2"}),
                  ("euler_frobenius", {"kappa": "1", "r": "n+1"}), ("laguerre", {"alpha": "1/2"}),
                  ("hyp2f1", {"b": "40", "c": "1"})]


def test_admits_family_tables_to_degree_36():
    # every pair of the six benchmark families' own tables to degree 36, pinned
    # when the system was still solved by elimination over all n rows and
    # the squarefree test ran on the whole member modulo 2^61 - 1
    results = []
    for kind, params in BENCH_FAMILIES:
        res = admits_dde(list(generate(coefficient_source(FamilySpec(kind, params)), 36).polys))
        assert res.all_admit, kind
        results.append(repr(res))
    assert hashlib.sha256("\n".join(results).encode()).hexdigest() == DEPTH_ADMITS


DEPTH_ADMITS = "7802747a498f7b2720cdfca2289c4fc5c7b75eef6854161daed6fbca6aec3f1c"


@pytest.mark.parametrize("p2, certified", [(P([0, -_PRIME, 1]), (0, -_PRIME, 1)), (P([-1, 0, _PRIME]), (-1, _PRIME))],
                         ids=["double-root-mod-p", "lead-divisible-by-p"])
def test_members_the_prime_cannot_certify_keep_their_verdict(monkeypatch, p2, certified):
    # for the certificate's prime m, x^2 - m x is x^2 modulo m, and m x^2 - 1
    # loses its lead there; both are squarefree, and only the exact chain
    # says so.  m x^2 - 1 has parity, so the chain is its even part's, m y - 1
    import ddepoly.poly as poly

    chains = []
    prs = poly._prs
    monkeypatch.setattr(poly, "_prs", lambda a, b: chains.append(tuple(a)) or prs(a, b))
    pairs = [CoefficientPair(P([1, 0, 1]), P([-2, 3])), CoefficientPair(P([0, 1, -1]), P([5, -1]))]
    table = [P([1]), p2.derivative(), p2]
    for c in pairs:
        table.append(step(table[-1], c))
    res = admits_dde(table)
    assert res.all_admit
    assert certified in chains
    for e in res.entries:
        assert step(table[e.n], e.pair) == table[e.n + 1]
        if e.n >= 3:
            assert e.unique and e.pair == pairs[e.n - 2]


def full_bareiss(rows, unknowns):
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 1968) over every row,
    pivoting in each column on the first nonzero row from the next pivot
    position down: the oracle for `_eliminate`, which runs it on the pivot
    rows only.  Returns the rows, the pivot columns and the last pivot."""
    aug, pivots, d = [list(r) for r in rows], [], 1
    for col in range(unknowns):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        top, pv = aug[r], aug[r][col]
        for i, row in enumerate(aug):
            if i != r:
                f = row[col]
                aug[i] = [(pv * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(col)
        d = pv
        if len(pivots) == len(aug):
            break
    return aug, pivots, d


def random_system(rng):
    """Integer rows (three coefficients, right side): 2-40 rows of rank 0-3
    with entries to 130 bits and more, some rows and columns zero so that pivoting
    swaps rows, consistent but for, in most systems, one row's right side
    moved at a random position."""
    n, rank = rng.randint(2, 40), rng.randint(0, 3)
    big = lambda: rng.choice([-1, 1]) * rng.getrandbits(rng.choice([3, 40, 130]))
    basis = [[big() if rng.random() < 0.8 else 0 for _ in range(3)] for _ in range(rank)]
    z = [Fraction(big(), rng.getrandbits(20) + 1) for _ in range(3)]
    lead_zeros = rng.randint(0, min(n, 4))  # rows led by zero coefficients
    rows = []
    for i in range(n):
        mix = [0 if i < lead_zeros and rng.random() < 0.7 else rng.randint(-3, 3) for _ in basis]
        cols = [sum(c * b[j] for c, b in zip(mix, basis)) for j in range(3)]
        if i < lead_zeros:
            cols[0] = 0
        rows.append(cols + [sum(c * y for c, y in zip(cols, z))])
    den = lcm(*(row[3].denominator for row in rows))
    rows = [[c * den for c in row[:3]] + [int(row[3] * den)] for row in rows]
    if rng.random() < 0.8:
        rows[rng.randrange(n)][3] += big() or 1
    return rows


def test_eliminate_matches_full_bareiss():
    rng = random.Random(41)
    ranks, swapped, inconsistent = set(), 0, 0
    for _ in range(600):
        rows = random_system(rng)
        aug, pivots, d = full_bareiss(rows, 3)
        got_pivots, got_d, dz, got_bad = _eliminate(rows, 3)
        bad = next((row[3] for row in aug[len(pivots):] if row[3]), 0)
        assert (got_pivots, got_d, got_bad) == (pivots, d, bad), rows
        assert [dz[c] for c in pivots] == [row[3] for row in aug[:len(pivots)]], rows
        assert all(dz[c] == 0 for c in range(3) if c not in pivots)
        ranks.add(len(pivots))
        swapped += rows[0][0] == 0 and pivots[:1] == [0]
        inconsistent += bad != 0
    assert ranks == {0, 1, 2, 3} and swapped > 100 and inconsistent > 300


def test_admits_exact_failure_at_four_roots():
    # P4 = (x^2-1)(x^2-4); P5 = x^5 + x^4 gives ratios at the four roots
    # that no quadratic interpolates (checked by hand via the Vandermonde
    # system), so the decision must fail exactly at n = 4
    p4 = P([-1, 0, 1]) * P([-4, 0, 1])
    p5 = P([0, 0, 0, 0, 1, 1])
    seq = [P([1]), P([0, 1]), P([-1, 0, 1]), P([0, -1, 0, 1]), p4, p5]
    res = admits_dde(seq)
    e = res.entry(4)
    assert e.verdict == "fails"
    assert e.witness and not res.all_admit
    for n in (2, 3):
        assert res.entry(n).verdict == "admits"


def test_sample_xy_basic():
    pairs = sample_xy(P([0, 2]), P([-2, 0, 4]), Fraction(1, 10**9))
    assert len(pairs) == 1
    x, y = pairs[0]
    assert abs(x) < 1e-9 and abs(y + 1) < 1e-9


def test_sample_xy_matches_recovered_coefficients():
    seq = generate(HERMITE, 6)
    res = admits_dde(list(seq.polys))
    width = Fraction(1, 10**12)
    for n in range(2, 6):
        A = res.entry(n).pair.A
        for x, y in sample_xy(seq[n], seq[n + 1], width):
            ax = A(x)
            assert abs(ax - y) < 1e-9


def test_sample_xy_rejects_repeated_roots():
    with pytest.raises(NonSimpleZerosError, match="repeated factor of degree 1"):
        sample_xy(P([1, -2, 1]), P([0, 0, 0, 1]), Fraction(1, 100))


def test_sample_xy_rejects_float_members_that_are_not_real_simple():
    # one certified check for both kinds, before any refinement: a double
    # root, and a pair of complex roots
    for coeffs, witness in (([1, -2, 1], "repeated factor of degree 1"), ([1, 0, 1], "only 0 of 2 roots are real")):
        with pytest.raises(NonSimpleZerosError, match=witness):
            sample_xy(Poly.floating(coeffs), Poly.floating([0, 0, 0, 1]), mpmath.mpf(2) ** -40)


def test_round_trip_generate_admits():
    src = CoefficientRule(lambda n: CoefficientPair(P([1, 0, -1]), P([0, -2 * (n + 1)])))
    seq = generate(src, 8)
    res = admits_dde(list(seq.polys))
    assert res.all_admit
    for e in res.entries:
        assert step(seq[e.n], e.pair) == seq[e.n + 1]
        if e.n >= 3:
            assert e.unique
            assert e.pair == src.pair(e.n)


def test_residual_identity_every_step():
    src = CoefficientRule(lambda n: CoefficientPair(P([0, 1, -1]), P([n + 1, -5])))
    seq = generate(src, 8)
    for n in range(8):
        c = src.pair(n)
        resid = seq[n + 1] - (c.A * seq[n].derivative() + c.B * seq[n])
        assert resid.is_zero


def test_sample_xy_keeps_working_precision():
    # P_n' has the coefficient -1/3, which 53-bit arithmetic would round
    prec = 256
    Pn = Poly.floating([0, Fraction(-1, 3), 0, 1], prec)
    Pn1 = Poly.floating([Fraction(1, 7), 0, Fraction(-2, 3), 0, 1], prec)
    pairs = sample_xy(Pn, Pn1, mpmath.mpf(2) ** -100)
    assert len(pairs) == 3
    with mpmath.workprec(4 * prec):
        dPn = Pn.derivative()
        for x, y in pairs:
            ref = Pn1(x) / dPn(x)
            assert abs(y - ref) <= abs(ref) * mpmath.mpf(2) ** -200
