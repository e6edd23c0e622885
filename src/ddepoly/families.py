"""Built-in coefficient families and the independent constructions used to
cross-check them.

Each family supplies per-degree coefficient pairs for the recurrence, and
where a classical closed form exists (`oracle_poly`) it is computed by a
route that never touches the recurrence: Stirling numbers for the Bell
polynomials, terminating hypergeometric series, and the standard
three-term recurrences of the classical orthogonal families.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .dde import CoefficientPair, CoefficientRule
from .poly import Poly, as_fraction

FAMILY_PARAMS = {  # each family with the parameters it takes
    "jacobi": ("alpha", "beta"), "laguerre": ("alpha",), "hermite": (), "bell": (),
    "euler_frobenius": ("kappa", "r"), "hermite_like": ("kappa",), "vertgeim": ("a", "b", "alpha"),
    "hyp2f1": ("b", "c"), "freud": ("t",),
}
FAMILY_KINDS = tuple(FAMILY_PARAMS)
CLASSICAL_KINDS = ("jacobi", "laguerre", "hermite")

_RULE_RE = re.compile(
    r"^\s*(?:(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<op>[+-])\s*)?(?:(?P<b>\d+(?:/\d+)?)\s*\*\s*)?n\s*$"
)


@dataclass(frozen=True)
class ParamRule:
    """Per-degree parameter: a constant, an affine expression in n, or a table.

    Parse accepts "3", "-1/2", "n", "n+1", "2*n", "1/2+3*n", or a list of
    values indexed by n.
    """

    offset: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)
    table: tuple | None = None

    @classmethod
    def constant(cls, v):
        return cls(offset=as_fraction(v))

    @classmethod
    def affine(cls, offset, slope):
        return cls(offset=as_fraction(offset), slope=as_fraction(slope))

    @classmethod
    def parse(cls, spec):
        if isinstance(spec, ParamRule):
            return spec
        if isinstance(spec, (list, tuple)):
            return cls(table=tuple(as_fraction(v) for v in spec))
        if isinstance(spec, (int, Fraction)):
            return cls.constant(spec)
        text = str(spec).strip()
        if "n" not in text:
            return cls.constant(text)
        m = _RULE_RE.match(text)
        if m is None:
            # also allow "n+c" / "n-c"
            m2 = re.match(r"^\s*n\s*(?P<op>[+-])\s*(?P<a>\d+(?:/\d+)?)\s*$", text)
            if m2 is None:
                raise ValueError(f"cannot parse parameter rule {spec!r}; use 'a', 'a+b*n', 'n+a' or a table")
            a = as_fraction(m2.group("a"))
            return cls.affine(a if m2.group("op") == "+" else -a, 1)
        a = as_fraction(m.group("a")) if m.group("a") else Fraction(0)
        b = as_fraction(m.group("b")) if m.group("b") else Fraction(1)
        if m.group("op") == "-":
            b = -b
        return cls.affine(a, b)

    def at(self, n):
        if self.table is not None:
            if not 0 <= n < len(self.table):
                raise IndexError(f"parameter table covers 0..{len(self.table) - 1}, asked for {n}")
            return self.table[n]
        return self.offset + self.slope * n

    def describe(self):
        if self.table is not None:
            return list(str(v) for v in self.table)
        if self.slope == 0:
            return str(self.offset)
        if self.offset == 0:
            return f"{self.slope}*n" if self.slope != 1 else "n"
        return f"{self.offset}+{self.slope}*n" if self.slope != 1 else f"{self.offset}+n"


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus parameters, enough to build a coefficient source."""

    kind: str
    params: dict = field(default_factory=dict)
    precision: int = 256

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; choose from {', '.join(FAMILY_KINDS)}")
        _validate_params(self.kind, self.params)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        kind = d.pop("kind", None)
        if kind is None:
            raise ValueError("family document needs a 'kind' field")
        precision = int(d.pop("precision", 256))
        return cls(kind=kind, params=d, precision=precision)

    def describe(self):
        out = {"kind": self.kind}
        for k, v in self.params.items():
            out[k] = v.describe() if isinstance(v, ParamRule) else str(v)
        return out


class UnknownParameterError(ValueError):
    """A parameter the family does not take; `name` lets a front end point at it."""

    def __init__(self, kind, name):
        self.name = name
        super().__init__(f"{kind} takes no parameter {name}")


def _validate_params(kind, params):
    for name, v in params.items():
        if name not in FAMILY_PARAMS[kind]:
            raise UnknownParameterError(kind, name)
        if name != "t":  # freud's t may be a big float
            try:
                ParamRule.parse(v)
            except ZeroDivisionError as exc:
                raise ValueError(f"parameter {name}: {exc}") from None
    if kind == "jacobi":
        a, b = as_fraction(params.get("alpha", 0)), as_fraction(params.get("beta", 0))
        if a <= -1 or b <= -1:
            raise ValueError("jacobi requires alpha > -1 and beta > -1")
    elif kind == "laguerre":
        if as_fraction(params.get("alpha", 0)) <= -1:
            raise ValueError("laguerre requires alpha > -1")
    elif kind == "hyp2f1":
        as_fraction(params.get("b", 1))
        as_fraction(params.get("c", 1))
    elif kind == "vertgeim":
        if as_fraction(params.get("alpha", 1)) <= 0:
            raise ValueError("vertgeim requires alpha > 0")


def classical_coeffs(kind, n, **params):
    """Coefficient pair of a classical orthogonal family at degree n."""
    if kind == "hermite":
        return CoefficientPair(Poly.rational([-1]), Poly.rational([0, 2]))
    if kind == "laguerre":
        alpha = as_fraction(params.get("alpha", 0))
        den = Fraction(n + 1)
        return CoefficientPair(
            Poly.rational([0, Fraction(1) / den]),
            Poly.rational([(alpha + n + 1) / den, Fraction(-1) / den]),
        )
    if kind == "jacobi":
        alpha = as_fraction(params.get("alpha", 0))
        beta = as_fraction(params.get("beta", 0))
        s = 2 * n + 2 + alpha + beta
        d1 = 2 * (n + 1) * (n + 1 + alpha + beta)
        if d1 == 0:
            raise ValueError(f"jacobi coefficients undefined at n={n}: (n+1)(n+1+alpha+beta) = 0")
        d2 = 2 * (n + 1)
        A = Poly.rational([-s / d1, 0, s / d1])
        B = Poly.rational([(alpha - beta) / d2, s / d2])
        return CoefficientPair(A, B)
    raise ValueError(f"unknown classical family {kind!r}")


def model_coeffs(kind, n, **params):
    """Coefficient pair of one of the non-orthogonal model families at degree n."""
    if kind == "bell":
        x = Poly.rational([0, 1])
        return CoefficientPair(x, x)
    if kind == "euler_frobenius":
        kap = ParamRule.parse(params.get("kappa", 1)).at(n)
        r = ParamRule.parse(params.get("r", 1)).at(n)
        if r <= 0:
            raise ValueError(f"euler_frobenius requires r_n > 0, got r_{n} = {r}")
        if kap == 0:
            raise ValueError(f"euler_frobenius requires kappa_n != 0 at n={n}")
        return CoefficientPair(Poly.rational([kap, 0, -kap]), Poly.rational([0, -2 * kap * r]))
    if kind == "hermite_like":
        kap = ParamRule.parse(params.get("kappa", 1)).at(n)
        if kap == 0:
            raise ValueError(f"hermite_like requires kappa_n != 0 at n={n}")
        return CoefficientPair(Poly.rational([kap]), Poly.rational([0, -2 * kap]))
    if kind == "vertgeim":
        a = ParamRule.parse(params.get("a", 1)).at(n)
        b = ParamRule.parse(params.get("b", 1)).at(n)
        alpha = as_fraction(params.get("alpha", 1))
        if a <= 0 or b <= 0 or alpha <= 0:
            raise ValueError(f"vertgeim requires a_n, b_n, alpha > 0 (n={n})")
        return CoefficientPair(Poly.rational([-b, 0, a]), Poly.rational([0, alpha * a]))
    if kind == "hyp2f1":
        b = as_fraction(params.get("b", 1))
        c = as_fraction(params.get("c", 1))
        return CoefficientPair(Poly.rational([0, 1, -1]), Poly.rational([n + c, -b]))
    raise ValueError(f"unknown model family {kind!r}")


def coefficient_source(spec):
    """Coefficient source (pair(n)) for a family spec; freud has none."""
    if spec.kind == "freud":
        raise ValueError("the freud family has no polynomial coefficient pairs; use the freud module")
    if spec.kind in CLASSICAL_KINDS:
        return CoefficientRule(lambda n: classical_coeffs(spec.kind, n, **spec.params), name=spec.kind)
    return CoefficientRule(lambda n: model_coeffs(spec.kind, n, **spec.params), name=spec.kind)


@functools.lru_cache(maxsize=None)
def stirling2(n, k):
    """Stirling number of the second kind, S(n, k), by the triangle recurrence."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n == 0:
        return 1
    if k == 0:
        return 0
    if k == n:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def pochhammer(c, n):
    """Rising factorial (c)_n over the rationals."""
    out = Fraction(1)
    c = as_fraction(c)
    for i in range(n):
        out *= c + i
    return out


def oracle_poly(kind, n, **params):
    """Degree-n member of a family computed without the recurrence."""
    if kind == "bell":
        return Poly.rational([stirling2(n, k) for k in range(n + 1)])
    if kind == "hyp2f1":
        b = as_fraction(params.get("b", 1))
        c = as_fraction(params.get("c", 1))
        cn = pochhammer(c, n)
        coeffs = []
        for k in range(n + 1):
            num = pochhammer(-n, k) * pochhammer(b, k)
            den = pochhammer(c, k) * pochhammer(1, k)
            if den == 0:
                raise ValueError(f"hyp2f1 series undefined: (c)_{k} vanishes for c={c}")
            coeffs.append(cn * num / den)
        return Poly.rational(coeffs)
    if kind == "hermite":
        h0, h1 = Poly.rational([1]), Poly.rational([0, 2])
        if n == 0:
            return h0
        x2 = Poly.rational([0, 2])
        for m in range(1, n):
            h0, h1 = h1, x2 * h1 - (2 * m) * h0
        return h1
    if kind == "laguerre":
        alpha = as_fraction(params.get("alpha", 0))
        l0, l1 = Poly.rational([1]), Poly.rational([1 + alpha, -1])
        if n == 0:
            return l0
        for m in range(1, n):
            rhs = Poly.rational([2 * m + 1 + alpha, -1]) * l1 - (m + alpha) * l0
            l0, l1 = l1, rhs.scale(Fraction(1, m + 1))
        return l1
    if kind == "jacobi":
        alpha = as_fraction(params.get("alpha", 0))
        beta = as_fraction(params.get("beta", 0))
        p0 = Poly.rational([1])
        p1 = Poly.rational([(alpha - beta) / 2, (alpha + beta + 2) / 2])
        if n == 0:
            return p0
        for m in range(1, n):
            s = 2 * m + alpha + beta
            c0 = 2 * (m + 1) * (m + alpha + beta + 1) * s
            lin = Poly.rational([alpha * alpha - beta * beta, s * (s + 2)]) * (s + 1)
            rhs = lin * p1 - Poly.rational([2 * (m + alpha) * (m + beta) * (s + 2)]) * p0
            p0, p1 = p1, rhs.scale(Fraction(1, 1) / c0)
        return p1
    raise ValueError(f"no oracle construction for family {kind!r}")
