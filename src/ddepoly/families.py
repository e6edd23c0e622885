"""Built-in coefficient families and the independent constructions used to
cross-check them.

Each family is one entry of `FAMILIES`: the parameters it takes, their
defaults and domains, and whether each may vary with n.  `FamilySpec`
reads and checks them once, and `_pair` writes every family's per-degree
coefficient pair for the recurrence.  Where a classical closed form exists
(`oracle_poly`) it is computed by a route that never touches the
recurrence: Stirling numbers for the Bell polynomials, terminating
hypergeometric series, and the standard three-term recurrences of the
classical orthogonal families.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .dde import CoefficientPair, CoefficientRule
from .poly import Poly, as_fraction

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
    def parse(cls, spec):
        if isinstance(spec, ParamRule):
            return spec
        if isinstance(spec, (list, tuple)):
            return cls(table=tuple(as_fraction(v) for v in spec))
        if isinstance(spec, (int, Fraction)):
            return cls(offset=as_fraction(spec))
        text = str(spec).strip()
        if "n" not in text:
            return cls(offset=as_fraction(text))
        m = _RULE_RE.match(text)
        if m is None:
            # also allow "n+c" / "n-c"
            m2 = re.match(r"^\s*n\s*(?P<op>[+-])\s*(?P<a>\d+(?:/\d+)?)\s*$", text)
            if m2 is None:
                raise ValueError(f"cannot parse parameter rule {spec!r}; use 'a', 'a+b*n', 'n+a' or a table")
            a = as_fraction(m2.group("a"))
            return cls(offset=a if m2.group("op") == "+" else -a, slope=Fraction(1))
        a = as_fraction(m.group("a")) if m.group("a") else Fraction(0)
        b = as_fraction(m.group("b")) if m.group("b") else Fraction(1)
        if m.group("op") == "-":
            b = -b
        return cls(offset=a, slope=b)

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


def _scalar(raw):
    """An exact rational, else a finite big float ('1e-30' is exact, 'inf' is refused)."""
    try:
        return Fraction(raw)
    except ValueError:
        v = mpmath.mpf(raw)
    if not mpmath.isfinite(v):
        raise ValueError("not a finite number")
    return v


RULE, CONSTANT, DECIMAL = "rational or rule in n", "rational", "rational or decimal"
_READERS = {RULE: ParamRule.parse, CONSTANT: as_fraction, DECIMAL: _scalar}


class Param(NamedTuple):
    """A family parameter: its form (only a `RULE` varies with n), default, and domain (op, bound)."""

    form: str
    default: object
    domain: tuple | None = None


FAMILIES = {  # each family with the parameters it takes
    "jacobi": {"alpha": Param(CONSTANT, 0, (">", -1)), "beta": Param(CONSTANT, 0, (">", -1))},
    "laguerre": {"alpha": Param(CONSTANT, 0, (">", -1))},
    "hermite": {}, "bell": {},
    "euler_frobenius": {"kappa": Param(RULE, 1, ("!=", 0)), "r": Param(RULE, 1, (">", 0))},
    "hermite_like": {"kappa": Param(RULE, 1, ("!=", 0))},
    "vertgeim": {"a": Param(RULE, 1, (">", 0)), "b": Param(RULE, 1, (">", 0)), "alpha": Param(CONSTANT, 1, (">", 0))},
    "hyp2f1": {"b": Param(CONSTANT, 1), "c": Param(CONSTANT, 1)},
    "freud": {"t": Param(DECIMAL, 0)},
}
FAMILY_KINDS = tuple(FAMILIES)


class ParameterError(ValueError):
    """A family parameter refused; `name` lets a front end point at it
    (`--name` on the command line, `$.family.name` in a document)."""

    def __init__(self, name, message):
        self.name = name
        super().__init__(message)


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus parameters, enough to build a coefficient source.
    `values` holds every parameter the family takes, given or defaulted, read
    and checked once (a rule's domain at each n it is read at)."""

    kind: str
    params: dict = field(default_factory=dict)
    precision: int = 256
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}; choose from {', '.join(FAMILY_KINDS)}")
        table = FAMILIES[self.kind]
        for name in self.params:
            if name not in table:
                raise ParameterError(name, f"{self.kind} takes no parameter {name}")
        values = {}
        for name, param in table.items():
            raw = self.params.get(name, param.default)
            try:
                values[name] = _READERS[param.form](raw)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise ParameterError(name, f"bad value {raw!r}: {exc}") from None
            if param.form != RULE:
                _check(self.kind, name, values[name])
        object.__setattr__(self, "values", values)

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


def _check(kind, name, v, n=None):
    """Refuse a value outside its parameter's domain; `n` names the degree a rule was read at."""
    domain = FAMILIES[kind][name].domain
    if domain is not None and not (v > domain[1] if domain[0] == ">" else v != domain[1]):
        at = "" if n is None else f" at n={n}"
        raise ParameterError(name, f"{kind} requires {name} {domain[0]} {domain[1]}, got {v}{at}")


def _pair(kind, n, v):
    """(A_n, B_n) of a family, from its parameters' values `v` at degree n."""
    P = Poly.rational
    if kind == "hermite":
        return P([-1]), P([0, 2])
    if kind == "laguerre":
        den = Fraction(n + 1)
        return P([0, 1 / den]), P([(v["alpha"] + n + 1) / den, -1 / den])
    if kind == "jacobi":
        alpha, beta = v["alpha"], v["beta"]
        s = 2 * n + 2 + alpha + beta
        d1 = 2 * (n + 1) * (n + 1 + alpha + beta)
        d2 = 2 * (n + 1)
        # d1 = 0 only at n = 0 with alpha + beta = -1 (Chebyshev T among them), where P_0' = 0
        # leaves A_0 unread
        A = P([-s / d1, 0, s / d1]) if d1 else P([0])
        return A, P([(alpha - beta) / d2, s / d2])
    if kind == "bell":
        x = P([0, 1])
        return x, x
    if kind == "euler_frobenius":
        kap = v["kappa"]
        return P([kap, 0, -kap]), P([0, -2 * kap * v["r"]])
    if kind == "hermite_like":
        return P([v["kappa"]]), P([0, -2 * v["kappa"]])
    if kind == "vertgeim":
        return P([-v["b"], 0, v["a"]]), P([0, v["alpha"] * v["a"]])
    return P([0, 1, -1]), P([n + v["c"], -v["b"]])  # hyp2f1


def coefficient_source(spec):
    """Coefficient source (pair(n)) for a family spec; freud has none."""
    if spec.kind == "freud":
        raise ValueError("the freud family has no polynomial coefficient pairs; use the freud module")
    rules = [name for name, v in spec.values.items() if isinstance(v, ParamRule)]

    def pair(n):
        v = dict(spec.values)
        for name in rules:
            v[name] = spec.values[name].at(n)
            _check(spec.kind, name, v[name], n)
        return CoefficientPair(*_pair(spec.kind, n, v))

    return CoefficientRule(pair, name=spec.kind)


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
    v = FamilySpec(kind, params).values
    if kind == "bell":
        return Poly.rational([stirling2(n, k) for k in range(n + 1)])
    if kind == "hyp2f1":
        b, c = v["b"], v["c"]
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
        alpha = v["alpha"]
        l0, l1 = Poly.rational([1]), Poly.rational([1 + alpha, -1])
        if n == 0:
            return l0
        for m in range(1, n):
            rhs = Poly.rational([2 * m + 1 + alpha, -1]) * l1 - (m + alpha) * l0
            l0, l1 = l1, rhs.scale(Fraction(1, m + 1))
        return l1
    if kind == "jacobi":
        alpha, beta = v["alpha"], v["beta"]
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
