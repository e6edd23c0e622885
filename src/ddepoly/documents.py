"""Input and report documents for the command-line front end.

Input documents are JSON with exactly one of three payloads:

  {"family": {"kind": "bell"}, "N": 12}
  {"sequence": [["1"], ["0", "2"], ["-2", "0", "4"]]}
  {"coefficients": [{"A": ["-1"], "B": ["0", "2"]}, ...]}

plus optional "precision" (bits) and "tolerance".  Polynomials are
coefficient arrays indexed by power.  Exact rationals are encoded as
integers or "p/q" strings; a coefficient written with a decimal point or
exponent makes its polynomial big-float at the stated precision.  Each
polynomial is typed on its own: a sequence whose members differ in kind
(P_0 = "1" with decimal later members) is refused, and the A and B of one
pair must agree unless one is zero.  Reports serialize rationals back to
the same exact strings, so documents round-trip losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

import mpmath

from .dde import CoefficientPair, CoefficientTable
from .families import FamilySpec, ParameterError
from .poly import Poly, Surd, _Infinity, format_scalar
from .roots import Interval


class DocumentError(ValueError):
    """Schema violation; carries a location path for exit-code-2 reporting."""

    def __init__(self, location, message):
        self.location = location
        super().__init__(f"{location}: {message}")


def _is_float_token(v):
    if isinstance(v, float):
        return True
    if isinstance(v, str):
        s = v.strip()
        return ("." in s or "e" in s.lower()) and "/" not in s
    return False


def parse_scalar(v, location, precision=256):
    if isinstance(v, bool) or not isinstance(v, (int, str, float)):
        raise DocumentError(location, f"expected a number or 'p/q' string, got {type(v).__name__}")
    try:
        if _is_float_token(v):
            with mpmath.workprec(precision):
                return mpmath.mpf(str(v).strip())
        return Fraction(str(v)) if isinstance(v, str) else Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(location, f"bad scalar {v!r}: {exc}") from None


def parse_poly(coeffs, location, precision):
    if not isinstance(coeffs, (list, tuple)):
        raise DocumentError(location, "polynomial must be an array of coefficients")
    vals = [parse_scalar(c, f"{location}[{i}]", precision) for i, c in enumerate(coeffs)]
    if any(isinstance(v, mpmath.mpf) for v in vals):
        return Poly.floating(vals, precision)
    return Poly.rational(vals)


class InputDocument:
    """Validated CLI input: a family, a sequence, or a coefficient table."""

    def __init__(self, family=None, N=None, sequence=None, coefficients=None,
                 precision=256, tolerance=1e-12):
        self.family = family
        self.N = N
        self.sequence = sequence
        self.coefficients = coefficients
        self.precision = precision
        self.tolerance = tolerance

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise DocumentError("$", "document must be a JSON object")
        keys = [k for k in ("family", "sequence", "coefficients") if k in doc]
        if len(keys) != 1:
            raise DocumentError("$", f"need exactly one of family/sequence/coefficients, got {keys or 'none'}")
        precision = doc.get("precision", 256)
        if not isinstance(precision, int) or precision < 64:
            raise DocumentError("$.precision", "precision must be an integer >= 64")
        tolerance = doc.get("tolerance", 1e-12)
        try:
            tolerance = float(tolerance)
        except (TypeError, ValueError):
            raise DocumentError("$.tolerance", f"bad tolerance {tolerance!r}") from None
        kind = keys[0]
        if kind == "family":
            fam = doc["family"]
            if not isinstance(fam, dict):
                raise DocumentError("$.family", "family must be an object with a 'kind'")
            try:
                spec = FamilySpec.from_dict({**fam, "precision": precision})
            except ParameterError as exc:
                raise DocumentError(f"$.family.{exc.name}", str(exc)) from None
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise DocumentError("$.family", str(exc)) from None
            N = doc.get("N")
            if not isinstance(N, int) or N < 1:
                raise DocumentError("$.N", "N must be an integer >= 1")
            for key, v in fam.items():
                if isinstance(v, list) and len(v) < N:
                    raise DocumentError(f"$.family.{key}", f"a table of {len(v)} values; N = {N} needs {N}")
            return cls(family=spec, N=N, precision=precision, tolerance=tolerance)
        if kind == "sequence":
            seq = doc["sequence"]
            if not isinstance(seq, list) or not seq:
                raise DocumentError("$.sequence", "sequence must be a non-empty array of polynomials")
            polys = [parse_poly(p, f"$.sequence[{i}]", precision) for i, p in enumerate(seq)]
            kinds = {p.kind for p in polys if not p.is_zero}
            if len(kinds) > 1:
                raise DocumentError("$.sequence", "mixed rational and float polynomials in one document")
            return cls(sequence=polys, precision=precision, tolerance=tolerance)
        coeffs = doc["coefficients"]
        if not isinstance(coeffs, list) or not coeffs:
            raise DocumentError("$.coefficients", "coefficients must be a non-empty array of {A, B} objects")
        pairs = []
        for i, entry in enumerate(coeffs):
            loc = f"$.coefficients[{i}]"
            if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
                raise DocumentError(loc, "each entry needs 'A' and 'B' coefficient arrays")
            A = parse_poly(entry["A"], f"{loc}.A", precision)
            B = parse_poly(entry["B"], f"{loc}.B", precision)
            try:
                pairs.append(CoefficientPair(A, B))
            except (ValueError, TypeError) as exc:
                raise DocumentError(loc, str(exc)) from None
        N = doc.get("N", len(pairs))
        if not isinstance(N, int) or N < 1:
            raise DocumentError("$.N", "N must be an integer >= 1")
        if N > len(pairs):
            raise DocumentError("$.N", f"N = {N} needs the coefficient pairs 0..{N - 1}; the table has {len(pairs)}")
        return cls(coefficients=CoefficientTable(pairs), N=N, precision=precision, tolerance=tolerance)

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise DocumentError("$", f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DocumentError("$", f"invalid JSON in {path}: {exc}") from None
        return cls.from_dict(doc)


@cache
def _field_names(cls):
    return tuple(f.name for f in fields(cls))


def jsonable(obj):
    """Recursively convert report objects to JSON-serializable structures; a big float keeps 30 digits."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (Fraction, Surd, _Infinity, mpmath.mpf)):
        return format_scalar(obj, 30)
    if isinstance(obj, Poly):
        return [format_scalar(c, 30) for c in obj.coeffs]
    if isinstance(obj, Interval):
        return {
            "lo": format_scalar(obj.lo, 30), "hi": format_scalar(obj.hi, 30),
            "lo_open": obj.lo_open, "hi_open": obj.hi_open,
        }
    if isinstance(obj, CoefficientPair):
        return {"A": jsonable(obj.A), "B": jsonable(obj.B)}
    if is_dataclass(obj):
        return {name: jsonable(getattr(obj, name)) for name in _field_names(type(obj))}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def dump_report(payload, timestamp=True):
    """Deterministic JSON: identical inputs yield byte-identical output
    (modulo the timestamp field, which --no-timestamp removes)."""
    doc = dict(payload)
    if timestamp:
        import datetime

        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return _json(jsonable(doc), "\n") + "\n"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps's words for them


def _json(obj, newline):
    """`json.dumps(obj, indent=2, sort_keys=True)` for what `jsonable` returns
    (str-keyed dicts, lists, strings, ints, floats, bools and None), each
    line of a container's items starting with `newline` and two spaces.
    With `indent` set json.dumps runs its pure-Python encoder; this writes
    the same text directly."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (dict, list)):
        inner = newline + "  "
        if isinstance(obj, dict):
            ends, items = "{}", (f"{encode_basestring_ascii(k)}: {_json(obj[k], inner)}" for k in sorted(obj))
        else:
            ends, items = "[]", (_json(v, inner) for v in obj)
        return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if obj else ends
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    return int.__repr__(obj)


def zeros_csv(rows):
    """CSV table of isolated zeros: n,index,lo,hi,mid."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "index", "lo", "hi", "mid"])
    for n, idx, iv in rows:
        if iv.is_point:
            lo = hi = mid = iv.lo
        else:
            lo, hi, mid = iv.lo, iv.hi, iv.midpoint()
        w.writerow([n, idx, _csv_num(lo), _csv_num(hi), _csv_num(mid)])
    return buf.getvalue()


def _csv_num(x):
    return repr(float(x)) if isinstance(x, Fraction) else format_scalar(x, 20)
