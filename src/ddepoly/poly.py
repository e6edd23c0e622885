"""Dense univariate polynomial arithmetic over exact rationals or big floats.

Two scalar kinds are supported and never mixed inside one polynomial:
exact `fractions.Fraction` coefficients ("rational" kind) and `mpmath.mpf`
coefficients carrying an explicit working precision in bits ("float" kind,
minimum 64 bits).  Rational arithmetic is exact; float arithmetic rounds to
the polynomial's precision.  All values are immutable.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

import mpmath
from mpmath import mpf

RATIONAL = "rational"
FLOAT = "float"

MIN_FLOAT_PREC = 64
DEFAULT_FLOAT_PREC = 256


class KindMismatchError(TypeError):
    """Raised when an operation mixes rational and float operands."""


class InternalError(RuntimeError):
    """An invariant of the exact kernel failed: a bug, never an input error."""


@functools.total_ordering
class _Infinity:
    """Tagged signed infinity for extended-real endpoints.

    Compares with ints, Fractions, surds and mpf values; never collapses to a
    float.  Use the module singletons NEG_INF and POS_INF.
    """

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("inf", self.sign))

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(+1)


def _sign(v):
    return (v > 0) - (v < 0)


def _sign_surd(u, v, d):
    """Sign of u + v sqrt(d) for rationals u, v and a non-square d > 1."""
    su, sv = _sign(u), _sign(v)
    return su if su == sv or not sv or (su and u * u > v * v * d) else sv


@functools.total_ordering
class Surd:
    """An irrational a + b sqrt(d): Fractions a and b != 0, and an integer d > 1
    that is not a square.  Ordered exactly against ints, Fractions, surds of any
    d and the infinity tags.  No `_mpf_`, so mpmath never takes one for a float."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def _cmp(self, x):
        """Sign of self - x."""
        if isinstance(x, _Infinity):
            return -x.sign
        if isinstance(x, (int, Fraction)):
            return _sign_surd(self.a - x, self.b, self.d)
        if not isinstance(x, Surd):
            return NotImplemented
        u = self.a - x.a
        if x.d == self.d:
            return _sign_surd(u, self.b - x.b, self.d)
        # u + b sqrt(d) against b' sqrt(d'): by sign, then by u^2 + b^2 d - b'^2 d' + 2ub sqrt(d)
        left, right = _sign_surd(u, self.b, self.d), _sign(x.b)
        if left != right:
            return _sign(left - right)
        return left * _sign_surd(u * u + self.b * self.b * self.d - x.b * x.b * x.d, 2 * u * self.b, self.d)

    def __eq__(self, x):  # never equal to a rational
        return isinstance(x, Surd) and self._cmp(x) == 0

    def __lt__(self, x):
        c = self._cmp(x)
        return c if c is NotImplemented else c < 0

    def __hash__(self):
        # equal surds share a, b^2 d and the sign of b, whatever their d
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.d})"


def is_finite(x):
    return not isinstance(x, _Infinity)


def to_mpf(x, prec=DEFAULT_FLOAT_PREC):
    """Convert int/Fraction/Surd/mpf/float to mpf at the given precision; a
    surd with a and b of opposite signs as (a^2 - b^2 d) / (a - b sqrt(d))."""
    if isinstance(x, Surd):
        with mpmath.workprec(prec + 16):
            a, root = to_mpf(x.a, prec + 16), to_mpf(x.b, prec + 16) * mpmath.sqrt(x.d)
            v = a + root if x.a * x.b >= 0 else to_mpf(x.a * x.a - x.b * x.b * x.d, prec + 16) / (a - root)
        with mpmath.workprec(prec):
            return +v
    if isinstance(x, Fraction):
        with mpmath.workprec(prec):
            return mpmath.mpf(x.numerator) / x.denominator
    with mpmath.workprec(prec):
        return mpmath.mpf(x)


def as_exact(x):
    """Exact Fraction for an int, Fraction or finite mpf (mpf values are dyadic)."""
    if not isinstance(x, mpf):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"cannot convert non-finite value {x!r}")
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def as_fraction(x):
    """Coerce an int, Fraction or 'p/q' string to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_scalar(x, dps=17):
    """Render a scalar for reports: exact 'p/q' for rationals, 'a + b*sqrt(d)'
    for surds (a zero a left out), decimal otherwise."""
    if isinstance(x, _Infinity):
        return repr(x)
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, dps)
    if isinstance(x, Surd):
        root = f"{format_scalar(abs(x.b))}*sqrt({x.d})"
        if not x.a:
            return root if x.b > 0 else f"-{root}"
        return f"{format_scalar(x.a)} {'+' if x.b > 0 else '-'} {root}"
    return mpmath.nstr(mpmath.mpf(x), dps)


class Poly:
    """Immutable dense polynomial; coefficients indexed by power."""

    __slots__ = ("coeffs", "kind", "prec")

    def __init__(self, coeffs, kind, prec=None):
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:n]))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def rational(cls, coeffs):
        """Exact polynomial from ints, Fractions or 'p/q' strings (low to high power)."""
        return cls([as_fraction(c) for c in coeffs], RATIONAL)

    @classmethod
    def floating(cls, coeffs, prec=DEFAULT_FLOAT_PREC):
        """Big-float polynomial at `prec` bits (>= 64)."""
        if prec < MIN_FLOAT_PREC:
            raise ValueError(f"float precision must be >= {MIN_FLOAT_PREC} bits, got {prec}")
        with mpmath.workprec(prec):
            cs = [mpmath.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mpmath.mpf(c) for c in coeffs]
        return cls(cs, FLOAT, prec)

    @classmethod
    def zero(cls, kind=RATIONAL, prec=None):
        return cls([], kind, prec)

    @classmethod
    def one(cls, kind=RATIONAL, prec=None):
        if kind == RATIONAL:
            return cls([Fraction(1)], RATIONAL)
        return cls([mpf(1)], FLOAT, prec or DEFAULT_FLOAT_PREC)

    @property
    def degree(self):
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else self._zero_scalar()

    def _zero_scalar(self):
        return Fraction(0) if self.kind == RATIONAL else mpf(0)

    def _check_kind(self, other):
        if self.kind != other.kind:
            raise KindMismatchError(f"cannot combine {self.kind} and {other.kind} polynomials")
        if self.kind == FLOAT:
            return max(self.prec or DEFAULT_FLOAT_PREC, other.prec or DEFAULT_FLOAT_PREC)
        return None

    def _wrap(self, coeffs, prec=None):
        return Poly(coeffs, self.kind, prec if prec is not None else self.prec)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        prec = self._check_kind(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._wrap(out, prec)

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            prec = self._check_kind(other)
            if self.is_zero or other.is_zero:
                return Poly.zero(self.kind, prec)
            exact = self.kind == RATIONAL  # then integer numerators over the product of lcm denominators
            (a, da), (b, db) = (_over_lcm(p.coeffs) if exact else (p.coeffs, 1) for p in (self, other))
            out = [0 if exact else self._zero_scalar()] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if not x:
                    continue
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return self._wrap([Fraction(v, da * db) for v in out] if exact else out, prec)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s):
        if self.kind == RATIONAL:
            s = as_fraction(s)
        return self._wrap([c * s for c in self.coeffs])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.kind, self.prec)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.kind == other.kind and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.kind, self.coeffs))

    def derivative(self):
        return self._wrap([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation.  Rational polynomials accept Fraction/int points
        (exact result) or mpf points (float result)."""
        if self.is_zero:
            return Fraction(0) if isinstance(x, (int, Fraction)) and self.kind == RATIONAL else mpf(0)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else x * acc + c
        if isinstance(x, mpf) and isinstance(acc, Fraction):
            return to_mpf(acc, mpmath.mp.prec)
        return acc

    def divrem(self, divisor):
        """Quotient and remainder with deg(remainder) < deg(divisor).

        Exact in rational mode; float mode rounds at the working precision.
        """
        prec = self._check_kind(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return Poly.zero(self.kind, prec), self
        rem = list(self.coeffs)
        dn = divisor.degree
        lead = divisor.coeffs[-1]
        quo = [self._zero_scalar()] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            f = rem[k] / lead
            quo[k - dn] = f
            if f:
                for j in range(dn + 1):
                    rem[k - dn + j] -= f * divisor.coeffs[j]
            rem[k] = self._zero_scalar()
        return self._wrap(quo, prec), self._wrap(rem[:dn], prec)

    def __mod__(self, other):
        return self.divrem(other)[1]

    def monic(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.lead
        if lc == 1:
            return self
        return self._wrap([c / lc for c in self.coeffs])

    def gcd(self, other):
        """Monic gcd over the rationals: the last entry of the primitive
        integer remainder chain of (self, other), made monic."""
        if self.is_zero and other.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        return Poly.rational(_remainders(self, other)[-1]).monic()

    def primitive_int_coeffs(self):
        """Integer coefficient vector with content 1, same sign pattern.

        The scaling factor is positive, so signs (hence Sturm variation
        counts) are preserved.
        """
        if self.kind != RATIONAL:
            raise KindMismatchError("integer normalization requires rational coefficients")
        if self.is_zero:
            return ()
        return _primitive(_over_lcm(self.coeffs)[0])

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def format_poly(p):
    """Human-readable form, highest power first: '2x^3 - x + 5/4'; a big float to 12 digits."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if i == 0:
            body = format_scalar(mag, 12)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            body = xs if mag == 1 else f"{format_scalar(mag, 12)}{xs}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _remainders(f, g):
    """`_prs` of the primitive integer vectors of two rational polynomials."""
    return _prs(f.primitive_int_coeffs(), g.primitive_int_coeffs())


def _over_lcm(coeffs):
    """Fraction coefficients as (integer numerators, den) over their lcm denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(v):
    """An integer vector divided by its content: content 1, same signs."""
    c = int_gcd(*v)
    return tuple(x // c for x in v)


def _prs(a, b):
    """Signed remainder sequence a, b, -rem(a, b), ... of integer vectors
    (low to high power; b may be empty) as the primitive pseudo-remainder
    sequence of Brown & Traub (JACM 1971): primitive parts of a, b, then of
    -|lc b|^(deg a - deg b + 1) (a mod b), ...; its last entry is +-gcd(a, b)."""
    chain = [_primitive(a), _primitive(b)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _prem(a, b if b[-1] > 0 else [-v for v in b])
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        chain.append(tuple(-v for v in _primitive(r)))
    return chain if chain[1] else chain[:1]  # gcd(a, 0) = a


def _prem(a, b):
    """Pseudo-remainder lc(b)^(len a - len b + 1) (a mod b) of integer vectors,
    untrimmed: len b - 1 entries, or a itself when it is the shorter."""
    lc, r, n = b[-1], list(a), len(b) - 1
    for k in range(len(a) - 1, n - 1, -1):  # r <- lc r - r_k x^(k-n) b
        q = r.pop()
        r = [lc * v for v in r]
        for i in range(n):
            r[k - n + i] -= q * b[i]
    return r


_PRIME = 2**30 - 35  # the largest prime below 2^30


def _parity(c):
    """Whether the vector c, of degree 2 or more, has parity:
    c(-x) = +-c(x), so its roots are symmetric about 0.  c[-2] is tested
    first, so the test costs a generic vector O(1)."""
    return len(c) > 2 and c[-2] == 0 and not any(c[-2::-2])


def _even_part(c):
    """(s, r) with c = x^s r(x^2) and r(0) != 0, for a vector c with parity.
    Such a c is squarefree iff s <= 1 and r is (Chihara, An Introduction to
    Orthogonal Polynomials, I.8)."""
    s = next(i for i, v in enumerate(c) if v)  # x^s divides c
    return s, c[s::2]


def _squarefree(a):
    """Whether the integer vector a (degree >= 1) is squarefree.  One with
    parity, a = x^s r(x^2), is iff s <= 1 and r is; any other a is its own r.
    Brown's one-sided certificate comes first (JACM 1971): when the prime
    `_PRIME` does not divide the lead, a repeated factor stays one modulo
    the prime, so a constant gcd(r, r') there proves r squarefree.  The prime
    is below 2^30, so a residue is one CPython digit and a product two.  Only a
    non-constant gcd, or a lead the prime divides, builds the exact chain."""
    if _parity(a):
        s, a = _even_part(a)
        if s > 1:
            return False
    m = _PRIME
    if a[-1] % m:
        f = [v % m for v in a]
        g = [i * v % m for i, v in enumerate(f)][1:]  # a' mod m, lead deg a lead(a) != 0
        while len(g) > 1:
            f, g = g, _rem_mod(f, g, m)
            if not g:
                break
        else:
            return True
    return len(_prs(a, _dx(a))[-1]) == 1


def _rem_mod(f, g, m):
    """f mod g up to a unit, for vectors of residues modulo the prime m with
    len f > len g and g's lead a unit; trimmed, so [] is 0.  Euclid's usual
    step, len f = len g + 1, has the quotient q1 x + q0 and takes one pass;
    any other takes the pseudo-remainder, a unit times the remainder."""
    if len(f) == len(g) + 1:
        inv = pow(g[-1], -1, m)
        q1 = f[-1] * inv % m
        q0 = (f[-2] - q1 * g[-2]) * inv % m
        r = [(a - q1 * b - q0 * c) % m for a, b, c in zip(f, [0] + g, g[:-1])]
    else:
        r = [v % m for v in _prem(f, g)]
    while r and not r[-1]:
        r.pop()
    return r


def _dx(a):
    return [i * v for i, v in enumerate(a)][1:]


def _quo(a, b):
    """a / b for integer vectors with b primitive and dividing a over Q;
    the quotient is then integral (Gauss's lemma)."""
    r, n, q = list(a), len(b) - 1, []
    for k in range(len(a) - 1, n - 1, -1):
        c = r[k] // b[-1]
        q.append(c)
        for i in range(n + 1):
            r[k - n + i] -= c * b[i]
    if any(r):
        raise InternalError("an exact division left a remainder")
    return q[::-1]


def squarefree_decomposition(p, g=None):
    """Yun decomposition of a rational polynomial: [(f_i, i)] with p ~ prod f_i^i.

    Factors are monic, squarefree and pairwise coprime.  Yun's loop (SYMSAC
    1976) runs on integer vectors: each gcd is the last entry of a `_prs`
    chain, primitive, so each division is exact over Z; monic on output.
    `g`, when given, is gcd(p, p') as such an entry (that of p's own chain),
    and Yun starts from it.
    """
    if p.kind != RATIONAL:
        raise KindMismatchError("squarefree decomposition requires rational coefficients")
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    a = p.primitive_int_coeffs()
    g = g or _prs(a, _dx(a))[-1]
    w, y = _quo(a, g), _quo(_dx(a), g)
    out, i = [], 1
    while len(w) > 1:
        z = [u - v for u, v in zip(y, _dx(w))]  # deg y = deg w - 1
        while z and not z[-1]:
            z.pop()
        gi = _prs(w, z)[-1]
        if len(gi) > 1:
            out.append((Poly.rational(gi).monic(), i))
        w, y = _quo(w, gi), _quo(z, gi)
        i += 1
    return out
