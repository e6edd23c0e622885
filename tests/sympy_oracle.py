"""Exact oracles from sympy over QQ, independent of ddepoly's remainder chain."""

from fractions import Fraction

import sympy

from ddepoly.poly import Poly

X = sympy.Symbol("x")


def to_sympy(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], X, domain=sympy.QQ)


def from_sympy(q):
    return Poly.rational([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def gcd(p, q):
    """Monic gcd of two rational polynomials, not both zero."""
    return from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).monic()


def sqf_list(p):
    """Squarefree factorization [(monic f_i, i)] of a nonconstant rational polynomial."""
    return [(from_sympy(f).monic(), m) for f, m in to_sympy(p).sqf_list()[1]]


def surd_to_sympy(x):
    """a + b sqrt(d) for a Surd, the value itself for a Fraction."""
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return surd_to_sympy(x.a) + surd_to_sympy(x.b) * sympy.sqrt(x.d)
