"""Real-root location: Sturm counting, isolating intervals, interlacing.

Rational mode is exact and runs on Python ints.  Signed remainder
sequences are `poly._remainders`, primitive pseudo-remainder sequences
(Brown & Traub, JACM 1971) and the one exact gcd routine.  Values and
signs at p/q come from the homogenized integer sum c_i p^i q^(d-i).  Tree
nodes, grid points and separators are integers over a shared power of two
(or its multiple by the root of a degree-1 member), and a Fraction is built
only for a returned interval.  At q = 2^k the sum is taken in shift form,
acc * p + (c_i << k(d-i)); a vector with parity is Horner in p^2 over its
nonzero half.

Isolation is one bisection tree over one chain per polynomial, that of
its squarefree part.  p's own chain comes first (but see parity below):
its last entry is gcd(p, p'), and only a non-constant one sends p
through Yun's decomposition, which starts from it; the factors' signs
give the multiplicities.  The tree starts from a dyadic bound 2^(e+2):
Fujiwara's root bound read off coefficient bit lengths, then doubled, so
no root lies on it.  A midpoint that is a root is kept as an exact point
[m, m], and bisection goes on over the same chain with counts that
exclude it.  Refinement is quadratic interval refinement (Abbott, 2006)
capped to the nodes of the same tree.  Interlacing is a Cauchy index
read off a remainder sequence.

A polynomial with parity, P(-x) = +-P(x), has roots symmetric about 0:
the members of hermite, jacobi(a, a), euler_frobenius, hermite_like,
vertgeim and Freud (Szegő, Orthogonal Polynomials, 2.3).  The tree over
(-M, M] is symmetric too, so only the roots in [0, M] are isolated and
refined, on both paths below, and each other root is the mirror (-b, -a]
of a node (a, b], itself a node of the tree with the same flags
(`_mirror`).  Such a P is x^s r(x^2) with r(0) != 0 and r of half the
degree (Chihara, An Introduction to Orthogonal Polynomials, I.8), and it
is counted on the chain of its even part r: P's roots in (a, b] for
0 <= a < b number V_r(a^2) - V_r(b^2), the top node holds
2 (V_r(0) - V_r(M^2)) + s, and P is squarefree iff s <= 1 and r's chain
ends in a constant (`_EvenIsolator`).  Any other P with parity builds
its own chain as above.

A sequence needs no chain at all where each member's roots certify the
next one's (`certify_next`).  The ends of P_n's isolating intervals and
+-M separate; P_{n+1}'s exact signs there bracket its roots, and when the
brackets and the zeros among the separators number deg P_{n+1}, the
intermediate value theorem and the degree prove it real-simple, one root
per bracket (Fisk, Polynomials, roots, and interlacing, arXiv:math/0612833).
The brackets then stand in for the chain: `locate_real_roots` walks
P_{n+1}'s tree on counts read off them (`_BracketIsolator`), with a value
taken only where a midpoint falls inside a bracket, and `_refine` starts
from the values at a node's ends, so the zeros are those of the Sturm path.  The
brackets' places among P_n's roots give the interlacing verdict.  When
the count falls short the member goes to the Sturm path, which stays the
oracle.
`sequence_zeros` runs this fold over a whole sequence; it is the one way
to a sequence's zeros, for `verify` and for the `zeros` command.

A float polynomial is decided as the rational one it holds (mpf values
are dyadic), by the same kernel, so its root count is certified for it.

Counting convention: for a squarefree polynomial the variation difference
V(a) - V(b) equals the number of distinct real roots in the half-open
interval (a, b].  Open/closed endpoints are then settled by exact sign
checks at the endpoints themselves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import mpmath
from mpmath.libmp import from_rational

from .poly import (
    FLOAT,
    NEG_INF,
    POS_INF,
    RATIONAL,
    InternalError,
    KindMismatchError,
    Poly,
    Surd,
    _dx,
    _even_part,
    _Infinity,
    _parity,
    _prs,
    _quo,
    _remainders,
    _sign,
    _sign_surd,
    as_exact,
    format_scalar,
    is_finite,
    squarefree_decomposition,
    to_mpf,
)


@dataclass(frozen=True)
class Interval:
    """Extended-real interval with openness flags.

    Isolating intervals produced here are half-open (lo, hi] or exact
    points [r, r]; hi is finite for isolating intervals.
    """

    lo: object
    hi: object
    lo_open: bool = True
    hi_open: bool = False

    def __post_init__(self):
        if is_finite(self.lo) and is_finite(self.hi) and self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def is_point(self):
        return is_finite(self.lo) and self.lo == self.hi

    def midpoint(self):
        if not is_finite(self.lo) or not is_finite(self.hi):
            raise ValueError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2

    def contains(self, x):
        if is_finite(self.lo):
            if x < self.lo or (x == self.lo and self.lo_open):
                return False
        if is_finite(self.hi):
            if x > self.hi or (x == self.hi and self.hi_open):
                return False
        return True

    def __repr__(self):
        lo = "(" if self.lo_open else "["
        hi = ")" if self.hi_open else "]"
        return f"{lo}{format_scalar(self.lo)}, {format_scalar(self.hi)}{hi}"


@dataclass(frozen=True)
class RootInterval:
    interval: Interval
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    """Sorted disjoint isolating intervals, one per distinct real root."""

    roots: tuple
    count: int
    squarefree: bool

    def midpoints(self, prec=53):
        out = []
        with mpmath.workprec(prec):
            for r in self.roots:
                iv = r.interval
                m = iv.lo if iv.is_point else iv.midpoint()
                out.append(to_mpf(m, prec) if isinstance(m, Fraction) else m)
        return out


def _value_int_poly(coeffs, num, den, parity=None):
    """sum_i c_i num^i den^(d-i), i.e. den^d f(num/den) for f = sum c_i x^i.

    A vector with parity, every other coefficient from the top zero, is
    Horner in num^2 over its nonzero half, times num when d is odd; a caller
    that evaluates one vector often reads `_parity` once and passes it.  When
    den is a power of two, den^(d-i) is a shift: acc * num + (c_i << k (d-i))."""
    d = len(coeffs) - 1
    step = 2 if (_parity(coeffs) if parity is None else parity) else 1
    x, acc = num**step, coeffs[-1]
    if den & (den - 1):
        power, y = 1, den**step
        for c in coeffs[-1 - step::-step]:
            power *= y
            acc = acc * x + c * power
    else:
        k, shift = (den.bit_length() - 1) * step, 0
        for c in coeffs[-1 - step::-step]:
            shift += k
            acc = acc * x + (c << shift)
    return acc * num if d % step else acc


def _signs_at(chain, x):
    """Exact signs of integer vectors at a Fraction or a Surd x.  At
    x = (p + q sqrt(d)) / den, Horner in Q(sqrt(d)) gives the integers U, V
    with den^n f(x) = U + V sqrt(d)."""
    if not isinstance(x, Surd):
        num, den = x.numerator, x.denominator
        return [_sign(_value_int_poly(c, num, den)) for c in chain]
    d, den = x.d, lcm(x.a.denominator, x.b.denominator)
    p, q = x.a.numerator * den // x.a.denominator, x.b.numerator * den // x.b.denominator
    out = []
    for c in chain:
        u, v, power = c[-1], 0, 1
        for ci in reversed(c[:-1]):
            power *= den
            u, v = u * p + v * q * d + ci * power, u * q + v * p
        out.append(_sign_surd(u, v, d))
    return out


def _variations(signs):
    changes = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            changes += 1
        prev = s
    return changes


def _variations_inf(chain, sgn):
    """Sign variations of a chain at sgn * infinity, read off the leads."""
    signs = []
    for c in chain:
        s = _sign(c[-1])
        if sgn < 0 and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _cauchy_index(chain):
    """Cauchy index over R of g/f for the chain of (f, g) (Sturm's theorem)."""
    return _variations_inf(chain, -1) - _variations_inf(chain, 1)


def _dyadic_bound(c):
    """A power of two above |root| for every root of sum c_i x^i: Fujiwara's
    bound 2 max_i |c_(n-i) / c_n|^(1/i), with each quotient below 2^(e i)
    by bit lengths, doubled so that no root lies on it."""
    top = abs(c[-1]).bit_length() - 1
    e = max((-((top - abs(v).bit_length()) // i) for i, v in enumerate(reversed(c[:-1]), 1) if v), default=0)
    return Fraction(2) ** (e + 2)


def _point(x):
    return Interval(x, x, False, False)


class _Isolator:
    """Sturm-chain root isolation for one rational polynomial f, on f's own
    chain, the signed remainder sequence of (f, f'), so its last entry is
    gcd(f, f') up to a scalar.  Counting and isolation need f squarefree,
    which is `gcd_degree == 0`.  The whole tree over (-M, M] is walked;
    `_isolator` picks the chain of f's even part where it suffices.
    """

    half = False

    def __init__(self, f):
        if f.is_zero:
            raise ValueError("zero polynomial")
        if f.kind != RATIONAL:
            raise KindMismatchError("exact root isolation requires rational coefficients")
        self.poly = f
        self.chain = _remainders(f, f.derivative())
        self.vector = self.chain[0]  # f's primitive integer vector, which `_refine` takes
        self.bound = _dyadic_bound(self.vector)

    @property
    def gcd_degree(self):
        return len(self.chain[-1]) - 1

    def sign(self, x):
        return _signs_at(self.chain[:1], x)[0]

    def at(self, num, den):
        """V and f's value den^n f at num/den, off one evaluation of the chain."""
        values = [_value_int_poly(c, num, den) for c in self.chain]
        return _variations(map(_sign, values)), values[0]

    def variations(self, x):
        if isinstance(x, _Infinity):
            return _variations_inf(self.chain, x.sign)
        return _variations(_signs_at(self.chain, x))

    def count_half_open(self, lo, hi):
        """Distinct roots in (lo, hi]; lo/hi are Fractions, Surds or infinity tags."""
        return self.variations(lo) - self.variations(hi)

    def top(self):
        """V(-M) and V(M) at the ends of the tree's top node."""
        return self.variations(-self.bound), self.variations(self.bound)


class _EvenIsolator(_Isolator):
    """Sturm counting for a squarefree f with parity on the chain of its even
    part: f = x^s r(x^2) with s <= 1 and r(0) != 0, r squarefree and of
    degree (deg f - s) / 2.  x -> x^2 maps (a, b] onto (a^2, b^2] for
    0 <= a, so f's roots there number V_r(a^2) - V_r(b^2), and `variations`
    reads V_r(x^2).  Below 0 it is continued so that V(a) - V(b) still
    counts f's roots in (a, b]: (x, 0) mirrors (0, -x).  Only the tree's
    nodes in [0, M] are walked (`half`), and `_mirror` gives the rest.
    """

    half, gcd_degree = True, 0

    def __init__(self, f, c, s, chain):
        self.poly, self.vector, self.bound, self.s, self.chain = f, c, _dyadic_bound(c), s, chain
        self.v0 = _variations([_sign(e[0]) for e in chain])  # V_r(0)

    def _mirrored(self, x, v, r_x2):
        """V(x) from v = V_r(x^2) and r_x2, r(x^2) or its sign: v itself for
        x >= 0; below 0, the roots in (0, -x) stand for those in (x, 0), and
        they number V_r(0) - v, less one when r(x^2) = 0."""
        return 2 * self.v0 + self.s - v - (r_x2 == 0) if x < 0 else v

    def sign(self, x):
        return _sign(x) ** self.s * _signs_at(self.chain[:1], x * x)[0]

    def at(self, num, den):
        """V and f's value at num/den: den^n f = num^s den^(n-s) r(x^2)."""
        values = [_value_int_poly(c, num * num, den * den) for c in self.chain]
        return self._mirrored(num, _variations(map(_sign, values)), values[0]), num**self.s * values[0]

    def variations(self, x):
        if isinstance(x, _Infinity):  # x^2 = +inf, where r has its leads' signs
            return self._mirrored(x, _variations_inf(self.chain, 1), 1)
        return self.at(x.numerator, x.denominator)[0]

    def top(self):
        v = self.variations(self.bound)  # r(M^2) != 0
        return self._mirrored(-self.bound, v, 1), v


def _isolator(f):
    """The isolator of the rational f on the shortest chain that counts its
    roots: that of its even part r when f = x^s r(x^2) has parity, s <= 1
    and r is squarefree (then so is f), else f's own.  A squarefree f with
    parity builds r's chain only; one with s <= 1 and r not squarefree
    builds r's chain, then f's."""
    if f.kind == RATIONAL and _parity(f.coeffs):
        c = f.primitive_int_coeffs()
        s, r = _even_part(c)
        if s <= 1:
            chain = _prs(r, _dx(r))
            if len(chain[-1]) == 1:
                return _EvenIsolator(f, c, s, chain)
    return _Isolator(f)


class _BracketIsolator:
    """Root counting for a q that `certify_next` proved real-simple, off its
    certificate: `found` lists q's roots in ascending order, each a bracket
    (left, right, s, key) of two separators, integers over the shared
    `den`, with one root strictly between them and s the sign of q just
    right of left, or left = right for a zero of q there.  V at num/d, the
    number of q's roots above it, is a bisect over the left ends comparing
    left d with num den, and q's value is taken only where num/d falls
    inside a bracket; off the roots it is None, and its sign lead (-1)^V."""

    gcd_degree = 0

    def __init__(self, q, c, M, half, den, found):
        self.poly, self.vector, self.bound, self.half, self.den = q, c, M, half, den
        self.found, self.lefts = found, [left for left, *_ in found]

    def at(self, num, d):
        x = num * self.den  # num/d and the separators, over d den
        i = bisect_left(self.lefts, x, key=d.__mul__)
        v = len(self.lefts) - i  # the roots of the brackets from a left end at or above num/d
        if i < len(self.lefts) and self.lefts[i] * d == x and self.found[i][1] == self.lefts[i]:
            return v - 1, 0  # a zero of q at num/d, which a bracket from there may follow
        if i and x < self.found[i - 1][1] * d:  # inside the bracket below
            value = _value_int_poly(self.vector, num, d, self.half)
            return v + (_sign(value) == self.found[i - 1][2]), value
        return v, None

    def top(self):
        return len(self.found), 0


def _refine(f, node, width, parity=None):
    """Shrink an isolating node of the integer vector f from
    `locate_real_roots`, starting from the walk's values at its ends (a
    missing one is evaluated), to the node that bisection on the sign of f
    returns: the first node no wider than `width`, or a midpoint that is
    the root, as a point.  Quadratic interval refinement takes 2^g cells at
    once: the secant through f's values at the ends names a grid point,
    signs there pick a cell, and a hit squares the cell count; a miss halves
    g and bisects once.  g is capped at the steps left, so every cell is a
    tree node.  `parity` is `_parity(f)`."""
    (lo, hi, den, f_lo, f_hi), n = node, len(f) - 1
    if lo == hi:
        return _point(Fraction(lo, den))
    f_lo = _value_int_poly(f, lo, den, parity) if f_lo is None else f_lo
    if f_lo == 0:
        raise InternalError(f"isolating interval ({Fraction(lo, den)}, {Fraction(hi, den)}] has a root at its open end")
    # bisection steps to a node no wider than width: bit length of ceil(ratio) - 1
    depth = (-(-(hi - lo) * width.denominator // (width.numerator * den)) - 1).bit_length()
    f_hi = _value_int_poly(f, hi, den, parity) if depth and f_hi is None else f_hi
    g = after_bisect = 2
    left = f_lo < 0  # f's sign left of the root: that of every f_lo, and not of any f_hi
    while depth:
        g = g if g < depth else depth
        cells, step, d, base = 1 << g, hi - lo, den << g, lo << g  # grid point i is (base + i step) / d
        a = -f_lo if left else f_lo
        total = a + (f_hi if left else -f_hi)
        # the inner grid point nearest the secant's root; the midpoint when g = 1
        i = (2 * cells * a + total) // (2 * total)
        i = 1 if i < 1 else i if i < cells else cells - 1
        v = _value_int_poly(f, base + i * step, d, parity)
        if v == 0:
            return _point(Fraction(base + i * step, d))
        k = i if (v < 0) == left else i - 1  # the cell (k, k + 1) toward the root
        o = 2 * k + 1 - i  # its other end
        if o == 0 or o == cells:  # an end, whose value d^n f is known
            w = (f_hi if o else f_lo) << (g * n)
        else:
            w = _value_int_poly(f, base + o * step, d, parity)
            if w == 0:
                return _point(Fraction(base + o * step, d))
        if (v < 0) == (w < 0):
            g, after_bisect = 1, max(g // 2, 2)
            continue
        lo, hi, den = base + k * step, base + (k + 1) * step, d
        f_lo, f_hi = (v, w) if k == i else (w, v)
        depth -= g
        g = 2 * g if g > 1 else after_bisect
    return Interval(Fraction(lo, den), Fraction(hi, den))


def locate_real_roots(f, iso):
    """Sorted isolating nodes for the real roots of a squarefree rational
    polynomial, each (lo, hi, den, f_lo, f_hi) for (lo/den, hi/den]: an
    exact point, lo = hi, or a half-open node holding one root with f
    nonzero at both ends.  den is 1 / width, a power of two, or 1 (the
    root's denominator for a degree-1 f).  f_lo and f_hi are f's values
    den^n f at the ends where the walk computed them, else None; `_refine`
    starts from them, and a stack entry's end whose value is 0 is a root
    point its counts exclude.  `iso` is an isolator already built for f,
    `_isolator(f)` or the `_BracketIsolator` of its certificate:
    each gives V and f's value at a midpoint (`at`) and the top node's
    counts (`top`).  On one with `half` (f with parity) no node below 0 is
    walked, so only the nodes in [0, M] come back, or (-M, M] itself when
    it holds f's one root; `_mirror` gives the rest.  A node narrower than
    f's root separation holds one root at most, so bisecting one raises
    `InternalError`."""
    if f.degree == 1:
        r = -f.coeffs[0] / f.coeffs[1]
        return [(r.numerator, r.numerator, r.denominator, 0, 0)]
    n, M, bits = f.degree, iso.bound, max(abs(v).bit_length() for v in iso.vector)
    # den's bits past which a node, no wider than 2 / den, is narrower than any two roots are apart: Mahler's
    # bound sep > sqrt(3) n^(-(n+2)/2) |c|^(1-n) for the vector c, with |c| < sqrt(n+1) 2^bits
    limit = 2 + (n + 2) * n.bit_length() // 2 + (n - 1) * (bits + (n + 1).bit_length())
    stack, out = [(-M.numerator, M.numerator, M.denominator, *iso.top(), None, None)], []
    while stack:  # the left child is popped first, so the nodes come out ascending
        a, b, den, va, vb, fa, fb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1 and (a == b or fa != 0 and fb != 0):
            out.append((a, b, den, fa, fb))
            continue
        if den.bit_length() > limit:
            raise InternalError(f"root counts of a degree-{n} polynomial do not settle at its root separation")
        if b - a == 1:  # den is 1 / width, or 1 while the width is above 1: (a, b) in lowest terms
            a, b, den, fa, fb = 2 * a, 2 * b, 2 * den, fa and fa << n, fb and fb << n
        m = (a + b) // 2
        vm, fm = iso.at(m, den)
        stack.append((m, b, den, vm, vb, fm, fb))
        if fm == 0:
            stack.append((m, m, den, 1, 0, 0, 0))
        if m > 0 or not iso.half:
            stack.append((a, m, den, va, vm + (fm == 0), fa, fm))  # at a root m, V(m-) = V(m) + 1
    return out


def _mirror(ivs):
    """All sorted isolating intervals of a polynomial with parity, from
    `ivs`, those of its roots in [0, M] (Fraction ends): each interval above
    0 adds its mirror, itself a node of the symmetric tree, (-b, -a] for
    (a, b] and [-r, -r] for [r, r]."""
    low = [_point(-iv.lo) if iv.is_point else Interval(-iv.hi, -iv.lo) for iv in reversed(ivs) if iv.hi > 0 <= iv.lo]
    return low + ivs


def sturm_count(p, iv):
    """Exact number of distinct real roots of a squarefree rational
    polynomial inside `iv`, honoring the interval's openness flags.  The
    package reads counts off isolated zeros instead; this stays as public
    API and as the tests' oracle for them."""
    iso = _Isolator(p)
    if iso.gcd_degree > 0:
        raise ValueError("sturm_count requires a squarefree polynomial; deflate via gcd(p, p') first")
    n = iso.count_half_open(iv.lo, iv.hi)
    if is_finite(iv.hi) and iv.hi_open and iso.sign(iv.hi) == 0:
        n -= 1
    if is_finite(iv.lo) and not iv.lo_open and iso.sign(iv.lo) == 0:
        n += 1
    return n


def _exact_image(p):
    """The rational polynomial a float p holds (mpf coefficients are
    dyadic rationals); a rational p itself."""
    return p if p.kind == RATIONAL else Poly.rational([as_exact(c) for c in p.coeffs])


def _ends_of_kind(p, iv):
    """iv with ends of p's kind: mpf for a float p, exact where dyadic and
    rounded outward at prec + 64 bits where not (a degree-1 root)."""
    if p.kind == RATIONAL:
        return iv
    lo, hi = (
        mpmath.mp.make_mpf(from_rational(x.numerator, x.denominator, max(p.prec + 64, x.numerator.bit_length()), rnd))
        for x, rnd in ((iv.lo, "f"), (iv.hi, "c"))
    )
    return Interval(lo, hi, iv.lo_open, iv.hi_open)


def isolate_roots(p, width):
    """Disjoint sorted isolating intervals for the real roots of p.

    One Sturm bisection tree over the chain of p's squarefree part,
    intervals refined to <= width.  A squarefree p with parity is counted
    on the chain of its even part (`_isolator`); any other p builds its own
    chain first, and when that shows p squarefree (gcd(p, p') constant) no
    Yun decomposition runs, else Yun starts from that gcd and multiplicities
    are read off the signs of p's Yun factors.  A float p is isolated as the
    rational polynomial it holds, so count, multiplicities and `squarefree`
    are certified for that polynomial; its interval ends are mpf
    (`_ends_of_kind`).
    """
    return _isolate(p, _isolator(_exact_image(p)), width)


def _isolate(p, iso, width):
    """`isolate_roots` on `iso`, the isolator of p's exact image."""
    if isinstance(width, _Infinity) or not width > 0:
        raise ValueError("width must be positive")
    width = as_exact(width)
    squarefree = iso.gcd_degree == 0
    if not squarefree:
        decomp = squarefree_decomposition(iso.poly, iso.chain[-1])
        iso = _isolator(prod((f for f, _ in decomp), start=Poly.one()))
        factors = [(f.primitive_int_coeffs(), m) for f, m in decomp]
    parity = _parity(iso.vector)
    ivs = [_refine(iso.vector, node, width, parity) for node in locate_real_roots(iso.poly, iso)]
    roots = [
        RootInterval(_ends_of_kind(p, iv), 1 if squarefree else _multiplicity(factors, iv))
        for iv in (_mirror(ivs) if iso.half else ivs)
    ]
    return RootSet(roots=tuple(roots), count=len(roots), squarefree=squarefree)


def _multiplicity(factors, iv):
    """Multiplicity of the one root in an isolating interval of the
    squarefree part: that of the Yun factor (an integer vector) which
    vanishes at a point root, or changes sign across a half-open interval."""
    for f, mult in factors:
        lo, hi = (_sign(_value_int_poly(f, x.numerator, x.denominator)) for x in (iv.lo, iv.hi))
        if lo == 0 if iv.is_point else lo != hi:
            return mult
    raise InternalError(f"no squarefree factor has the root in {iv!r}")


@dataclass(frozen=True)
class RealSimpleCheck:
    ok: bool
    witness: str | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class MemberRoots:
    """One member's roots: its reality check and its refined isolating
    intervals, as `isolate_roots` returns them (listed also when the check
    fails), on a Sturm chain or on `certify_next`'s brackets.  For a member
    `certify_next` certified, `places` holds one key per root: 2j when j
    roots of the member before lie below it and none on it, 2j + 1 when it
    is that member's root j, and None when its place is not settled.
    `places` is None on the Sturm path.
    """

    check: RealSimpleCheck
    zeros: tuple
    places: tuple | None = None


def sequence_zeros(polys, width):
    """One `MemberRoots` per member of `polys`: each certified from the
    zeros of the one before (`certify_next`), else checked and isolated on
    one Sturm chain.  A constant or zero member takes no certificate and
    the next starts from no zeros; one that is not real-simple passes none
    on.  A float member is taken as the rational polynomial it holds, and
    its zeros go out with mpf ends (`_ends_of_kind`)."""
    if isinstance(width, _Infinity) or not width > 0:
        raise ValueError("width must be positive")
    width, out, p, prev = as_exact(width), [], None, ()
    for q in polys:
        if q.degree < 1:
            out.append(MemberRoots(RealSimpleCheck(not q.is_zero, "zero polynomial" if q.is_zero else None), ()))
            p, prev = q, ()
            continue
        exact = _exact_image(q)
        rec = certify_next(p, prev, exact, width) if prev is not None else None
        if rec is None:
            iso = _isolator(exact)
            rec = MemberRoots(_real_simple(q, iso), tuple(r.interval for r in _isolate(exact, iso, width).roots))
        out.append(MemberRoots(rec.check, tuple(_ends_of_kind(q, iv) for iv in rec.zeros), rec.places))
        p, prev = exact, (rec.zeros if rec.check else None)
    return out


def certify_next(p, prev, q, width):
    """Certify the rational q real-simple from `prev`, the sorted isolating
    intervals of the real-simple p (the member before q), and return q's
    `MemberRoots` with its places; or return None.

    The separators are -M, the ends of `prev` inside (-M, M) and M for
    M = `_dyadic_bound`, integers over one den.  One where q vanishes is a
    root of q, with the one-sided signs -+sign q' there (None if q' vanishes
    too), and two adjacent signs that differ bracket a root.  For q with
    parity, the signs at a negative separator x whose mirror -x is one too
    are read off -x by position, times (-1)^n, the one-sided pair swapped.
    When the zeros and brackets number deg q, each bracket holds exactly one
    simple root and q has no other: q is real-simple.  The zeros are then
    `_isolate`'s on a `_BracketIsolator`, which counts q's roots off the
    brackets: the same tree walk by `locate_real_roots` on the same counts,
    the same mirror and `_refine`, so they equal `isolate_roots(q, width)`'s.
    The places come from the separators, and a root whose bracket holds one
    root of p is placed against it by `_order_in`.
    """
    c = q.primitive_int_coeffs()
    n, M, half = len(c) - 1, _dyadic_bound(c), _parity(c)
    den = lcm(M.denominator, *(x.denominator for iv in prev for x in (iv.lo, iv.hi)))
    m, xs, keys = M.numerator * den // M.denominator, [], []  # M and p's distinct ends over den, and their keys
    for j, iv in enumerate(prev):
        for x, key in [(iv.lo, 2 * j + 1)] if iv.is_point else [(iv.lo, 2 * j), (iv.hi, 2 * j + 2)]:
            x = x.numerator * (den // x.denominator)
            if not xs or xs[-1] != x:
                xs.append(x)
                keys.append(key)
            elif iv.is_point:  # a point keeps its own key against an end beside it
                keys[-1] = key
    lo, hi = bisect_right(xs, -m), bisect_left(xs, m)  # the ends inside (-M, M) are xs[lo:hi]
    whole = lo == 0 and hi == len(xs)  # else p has a root beyond +-M, below or above unknown
    seps = [-m, *xs[lo:hi], m]
    ks = [keys[lo - 1] if lo and xs[lo - 1] == -m else (0 if whole else None), *keys[lo:hi],
          keys[hi] if hi < len(xs) and xs[hi] == m else (2 * len(prev) if whole else None)]
    lead, dc = _sign(c[-1]), None
    sided = [(lead * (-1) ** n,) * 2, *[None] * (len(seps) - 2), (lead, lead)]  # q's sign just left, just right
    for i in range(len(seps) - 2, 0, -1) if half else range(1, len(seps) - 1):  # with parity, the ends above 0 first
        x = seps[i]
        j = bisect_left(seps, -x, i + 1, len(seps) - 1) if half and x < 0 else 0
        if j and seps[j] == -x:  # q(x +- h) = (-1)^n q(-x -+ h)
            below, above = sided[j]
            sided[i] = (-1) ** n * above, (-1) ** n * below
            continue
        t = (x | den) & -(x | den)  # x/den in lowest terms: the shared den can be far larger
        s = _sign(_value_int_poly(c, x // t, den // t, half))
        if s == 0:
            dc = dc or [k * v for k, v in enumerate(c)][1:]
            s = _sign(_value_int_poly(dc, x // t, den // t))
            if s == 0:
                return None
            sided[i] = -s, s
        else:
            sided[i] = s, s
    found = []  # (left, right, sign of q just right of left, key): a bracket, or a zero of q as left = right
    for i in range(len(seps) - 1):
        (below, above), ka = sided[i], ks[i]
        if below != above:
            found.append((seps[i], seps[i], above, ka))
        if above != sided[i + 1][0]:
            kb, key = ks[i + 1], None
            if ka is not None and kb is not None:
                j = (ka + 1) // 2  # roots of p at or below left
                if kb // 2 == j:  # none between
                    key = 2 * j
                elif ka == 2 * j == kb - 2:  # p's root j alone between
                    key = _order_in(p.primitive_int_coeffs(), c, seps[i], seps[i + 1], den, above, j)
            found.append((seps[i], seps[i + 1], above, key))
    if len(found) != n:
        return None
    zeros = _isolate(q, _BracketIsolator(q, c, M, half, den, found), width).roots
    return MemberRoots(RealSimpleCheck(True), tuple(r.interval for r in zeros), tuple(k for *_, k in found))


def _order_in(f, c, a, b, den, qa, j):
    """The key of c's one root in the bracket (a/den, b/den), which holds
    f's root j and no other, with qa the sign of c just right of a:
    bisection on the signs of both until a midpoint parts the roots or
    meets one; None when 64 steps do not (a shared irrational root never
    parts)."""
    fa = _sign(f[-1]) * (-1) ** (len(f) - 1 + j)  # f's sign between its roots j - 1 and j
    for _ in range(64):
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        t = (m | den) & -(m | den)
        qm, fm = (_sign(_value_int_poly(v, m // t, den // t)) for v in (c, f))
        q_right, f_right = qm == qa, fm == fa  # whether each root lies above m
        if qm == 0:
            return 2 * j + 1 if fm == 0 else 2 * j + 2 * (not f_right)
        if fm == 0 or q_right != f_right:
            return 2 * j + 2 * q_right
        a, b = (m, b) if q_right else (a, m)
    return None


def is_real_simple(p):
    """True iff p is squarefree with as many real roots as its degree; a
    float p is checked as the rational polynomial it holds."""
    return _real_simple(p, _isolator(_exact_image(p)))


def real_simple_zeros(p, width):
    """`is_real_simple(p)` and, when it holds, `isolate_roots(p, width)`
    (else None), both on one Sturm chain."""
    iso = _isolator(_exact_image(p))
    chk = _real_simple(p, iso)
    return chk, (_isolate(p, iso, width) if chk else None)


def _real_simple(p, iso):
    if iso.gcd_degree > 0:
        return RealSimpleCheck(False, f"repeated factor of degree {iso.gcd_degree}: gcd(p, p') is not constant")
    n = iso.count_half_open(NEG_INF, POS_INF)
    if n != p.degree:
        return RealSimpleCheck(False, f"only {n} of {p.degree} roots are real")
    return RealSimpleCheck(True)


@dataclass(frozen=True)
class InterlaceReport:
    verdict: str  # "strict" | "weak-shared-endpoint" | "fail"
    witness: str | None
    numeric: bool = False


def interlaces(p, q):
    """Decide whether the real roots of p and q (deg q = deg p + 1) alternate.

    Verdict "strict": between consecutive roots of q lies exactly one root
    of p, no coincidences.  Shared roots, the roots of g = gcd(p, q), are
    tolerated only at the extreme positions ("weak-shared-endpoint").
    Every verdict is a count on signed remainder sequences, and no root is
    located (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, 2.2):
    the unshared roots interlace iff the Cauchy index of p/q is +-deg(q/g),
    and the shared ones sit at the ends iff deg g <= 2 and g has one sign at
    all roots of q/g, that of -lead(g) when deg g = 2.  Float input is
    decided exactly on the dyadic rationals it holds; the report is numeric.
    The real-simple precondition builds p's and q's own chains, and only
    for a pair the Cauchy index does not settle as strict.
    """
    if q.degree != p.degree + 1:
        raise ValueError(f"degree mismatch: deg q = {q.degree}, expected deg p + 1 = {p.degree + 1}")
    numeric = p.kind == FLOAT or q.kind == FLOAT
    p, q = _exact_image(p), _exact_image(q)
    chain = _remainders(q, p)
    index = _cauchy_index(chain)
    shared = len(chain[-1]) - 1  # deg gcd(p, q)
    # deg q = 0 only for a zero p, which the precondition below rejects
    if not shared and abs(index) == q.degree > 0:
        return InterlaceReport("strict", None, numeric)
    for name, poly in (("p", p), ("q", q)):
        chk = is_real_simple(poly)
        if not chk:
            raise ValueError(f"{name} is not real-simple: {chk.witness}")
    g = Poly.rational(chain[-1])
    qt = Poly.rational(_quo(q.primitive_int_coeffs(), chain[-1]))
    if shared:
        taq = _cauchy_index(_remainders(qt, qt.derivative() * g))  # sum of sign g at roots of qt
        if not (shared <= 2 and abs(taq) == qt.degree and (shared == 1 or taq * g.lead < 0)):
            if shared > 1:
                return InterlaceReport("fail", f"{shared} shared roots, not all at the extreme positions", numeric)
            s = -g.coeffs[0] / g.coeffs[1]
            x = str(s.numerator) if s.denominator == 1 else "%.8g" % float(s)
            return InterlaceReport("fail", f"shared root {x} sits at an interior position", numeric)
    if abs(index) != qt.degree:
        witness = f"Cauchy index of p/q is {index}, interlacing needs +-{qt.degree}"
        return InterlaceReport("fail", witness, numeric)
    return InterlaceReport("weak-shared-endpoint", None, numeric)  # coprime pairs returned above
