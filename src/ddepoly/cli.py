"""Command-line front end.

Commands: generate, classify, verify, admits, freud-demo, zeros.
Exit codes: 0 success; 1 verification disagreement or hypothesis failure;
2 input/schema error; 3 numeric abort (the Freud recurrence exhausted its
precision); 4 internal error (an exact-kernel invariant failed, or a
TypeError, ZeroDivisionError or IndexError escaped: a bug, since every
input is parsed where it is read and refused there as a DocumentError);
--debug adds the traceback of an internal error to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

import mpmath

from . import __version__
from .dde import admits_dde, generate, sample_xy
from .documents import DocumentError, InputDocument, dump_report, zeros_csv
from .families import FAMILY_KINDS, FamilySpec, ParamRule, coefficient_source
from .freud import PrecisionError, freud_recurrence_coeffs, freud_sequence, p5_invariants
from .kfactor import predict
from .poly import KindMismatchError
from .roots import InternalError, sequence_zeros
from .verify import verify_sequence

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

_FAMILY_OPTS = ("alpha", "beta", "b", "c", "kappa", "r", "a", "t")


def _add_common(p, family=True):
    p.add_argument("--input", help="JSON input document (family, sequence, or coefficient table)")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--precision", type=int, default=256, help="big-float working precision in bits")
    p.add_argument("--tolerance", type=float,
                   help="relative residual tolerance (float mode; default: the input document's, else 1e-12)")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field (byte-stable output)")
    p.add_argument("--strict-extension", action="store_true",
                   help="refuse coefficient pairs whose quadratic A has no real roots")
    p.add_argument("--debug", action="store_true", help="print the traceback of an internal error (exit 4)")
    if family:
        p.add_argument("--family", choices=FAMILY_KINDS)
        p.add_argument("--n", type=int, help="largest degree N")
        for opt in _FAMILY_OPTS:
            p.add_argument(f"--{opt}", help=f"family parameter {opt} (rational or rule like 'n+1')")


def _family_from_args(args):
    params = {}
    for opt in _FAMILY_OPTS:
        v = getattr(args, opt, None)
        if v is not None:
            _parsed(f"--{opt}", _scalar if opt == "t" else ParamRule.parse, v)
            params[opt] = v
    return FamilySpec.from_dict({"kind": args.family, "precision": args.precision, **params})


def _parsed(location, parse, raw):
    """parse(raw), with a malformed value refused as an input error."""
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(location, f"bad value {raw!r}: {exc}") from None


def _scalar(raw):
    """An exact rational, else a big float ('1e-30' is exact, 'inf' is not)."""
    try:
        return Fraction(raw)
    except ValueError:
        return mpmath.mpf(raw)


def _resolve_input(args, need_n=True):
    """Common input resolution: --input document or --family flags."""
    if args.input:
        doc = InputDocument.load(args.input)
        if doc.family is not None:
            return doc.family, None, doc.N, doc
        if doc.coefficients is not None:
            return None, doc.coefficients, doc.N, doc
        return None, None, None, doc
    if not getattr(args, "family", None):
        raise DocumentError("$", "either --input or --family is required")
    if need_n and not args.n:
        raise DocumentError("$", "--n is required with --family")
    return _family_from_args(args), None, args.n, None


def _tolerance(args, doc):
    if args.tolerance is not None:
        return args.tolerance
    return doc.tolerance if doc is not None else 1e-12


def _emit(args, payload):
    text = dump_report(payload, out=args.out, timestamp=not args.no_timestamp)
    if not args.out:
        sys.stdout.write(text)


def cmd_generate(args):
    spec, table, N, doc = _resolve_input(args)
    if spec is not None and spec.kind == "freud":
        data = freud_recurrence_coeffs(_parse_t(args, doc), N, args.precision)
        seq = freud_sequence(data, N)
    else:
        src = coefficient_source(spec) if spec is not None else table
        if src is None:
            raise DocumentError("$", "generate needs a family or coefficient table")
        seq = generate(src, N)
    payload = {
        "command": "generate",
        "family": spec.describe() if spec is not None else "coefficient-table",
        "N": N,
        "polynomials": list(seq.polys),
        "degrees": list(seq.degrees),
        "collapsed": list(seq.collapsed),
        "truncated_at": seq.truncated_at,
        "diagnostic": seq.diagnostic,
    }
    _emit(args, payload)
    return EXIT_OK if seq.truncated_at is None else EXIT_DISAGREE


def cmd_classify(args):
    spec, table, N, doc = _resolve_input(args)
    src = coefficient_source(spec) if spec is not None else table
    if src is None:
        raise DocumentError("$", "classify needs a family or coefficient table")
    specs, gamma, decision = predict(src, N, args.strict_extension)
    payload = {
        "command": "classify",
        "family": spec.describe() if spec is not None else "coefficient-table",
        "N": N,
        "first_root": gamma,
        "classifications": [
            {
                "n": n,
                "tag": s.classification.tag,
                "extension": s.classification.extension,
                "pair": s.classification.pair,
                "exponents": [{"point": p, "exponent": e} for p, e in s.classification.form.log_terms],
                "zeros_of_K": list(s.zeros_of_k),
                "zeros_of_A_over_K": list(s.zeros_of_a_over_k),
                "k_zero_count": s.k_zero_count,
            }
            for n, s in enumerate(specs, 1)
        ],
        "decision": decision,
    }
    _emit(args, payload)
    return EXIT_OK if decision.ok else EXIT_DISAGREE


def cmd_verify(args):
    spec, table, N, doc = _resolve_input(args)
    target = spec if spec is not None else table
    if target is None:
        raise DocumentError("$", "verify needs a family or coefficient table")
    report = verify_sequence(target, N, strict_extension=args.strict_extension)
    if args.format == "csv":
        rows = []
        for rec in report.records:
            for idx, iv in enumerate(rec.zeros):
                rows.append((rec.n, idx, iv))
        text = zeros_csv(rows, out=args.out)
        if not args.out:
            sys.stdout.write(text)
    else:
        payload = {"command": "verify", "report": report}
        _emit(args, payload)
    return EXIT_OK if report.agreement else EXIT_DISAGREE


def cmd_admits(args):
    spec, table, N, doc = _resolve_input(args, need_n=False)
    if doc is not None and doc.sequence is not None:
        seq = doc.sequence
    elif spec is not None or table is not None:
        if N is None:
            raise DocumentError("$", "--n is required when admits runs on a family or coefficient table")
        src = coefficient_source(spec) if spec is not None else table
        seq = list(generate(src, N).polys)
    else:
        raise DocumentError("$", "admits needs a sequence document or a family")
    result = admits_dde(seq, tolerance=_tolerance(args, doc))
    payload = {"command": "admits", "result": result}
    _emit(args, payload)
    return EXIT_OK if result.all_admit else EXIT_DISAGREE


def cmd_freud_demo(args):
    t, tol = _parse_t(args, None), _tolerance(args, None)
    N = args.n or 6
    if N < 6:
        raise DocumentError("$", "the demo needs N >= 6 to reach the degree-5 decision")
    data = freud_recurrence_coeffs(t, N, args.precision)
    seq = freud_sequence(data, N)
    alpha, beta, zp, zm = p5_invariants(data)
    with mpmath.workprec(args.precision):
        expected = sorted([-mpmath.sqrt(zp), -mpmath.sqrt(zm), mpmath.mpf(0), mpmath.sqrt(zm), mpmath.sqrt(zp)])
        width = mpmath.mpf(2) ** (-args.precision // 2)
    xy = sample_xy(seq[5], seq[6], width)  # x_k: the zeros of P_5, isolated once
    with mpmath.workprec(args.precision):
        zero_err = max(abs(x - e) / (1 + abs(e)) for (x, _), e in zip(xy, expected))
    result = admits_dde(list(seq.polys), tolerance=tol)
    fail5 = result.entry(5)
    with mpmath.workprec(args.precision):
        V = mpmath.matrix(5, 5)
        for i, (x, _) in enumerate(xy):
            for j in range(5):
                V[i, j] = x**j
        coef = mpmath.lu_solve(V, mpmath.matrix([y for _, y in xy]))
        interp_resid = max(abs(sum(coef[j] * x**j for j in range(5)) - y) for x, y in xy)
    # scale-free: the degree-5 fit fails at the requested tolerance and the
    # interpolant y(x) has a degree-4 term no pair (deg A <= 2, deg B <= 1) allows
    reproduced = fail5.verdict == "fails" and abs(coef[4]) > tol * max(abs(coef[j]) for j in range(5))
    payload = {
        "command": "freud-demo",
        "t": t,
        "precision": args.precision,
        "recurrence_coefficients": list(data.a),
        "string_residuals": [float(r) for r in data.residuals],
        "quintic": seq[5],
        "zeta_plus": zp,
        "zeta_minus": zm,
        "quintic_zero_mismatch": float(zero_err),
        "admissibility": result,
        "interpolant_coefficients": [coef[j] for j in range(5)],
        "interpolant_residual": float(interp_resid),
        "interpolant_degree4_coefficient": coef[4],
        "no_polynomial_pair_at_5": reproduced,
    }
    _emit(args, payload)
    return EXIT_OK if reproduced else EXIT_DISAGREE


def cmd_zeros(args):
    spec, table, N, doc = _resolve_input(args, need_n=False)
    width = Fraction(1, 10**9) if args.width is None else _parsed("--width", Fraction, args.width)
    if doc is not None and doc.sequence is not None:
        polys = doc.sequence
    elif spec is not None and spec.kind == "freud":
        if N is None:
            raise DocumentError("$", "--n is required for the freud family")
        polys = freud_sequence(freud_recurrence_coeffs(_parse_t(args, doc), N, args.precision), N).polys
    else:
        src = coefficient_source(spec) if spec is not None else table
        if src is None:
            raise DocumentError("$", "zeros needs a family, coefficient table, or sequence document")
        if N is None:
            raise DocumentError("$", "--n is required with --family")
        polys = generate(src, N).polys
    w = width if polys[0].kind == "rational" else mpmath.mpf(float(width))
    rows = [(n, idx, iv) for n, rec in enumerate(sequence_zeros(polys, w)) for idx, iv in enumerate(rec.zeros)]
    text = zeros_csv(rows, out=args.out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_t(args, doc):
    raw, location = getattr(args, "t", None), "--t"
    if raw is None and doc is not None and doc.family is not None:
        raw, location = doc.family.params.get("t"), "$.family.t"
    return Fraction(0) if raw is None else _parsed(location, _scalar, raw)


def build_parser():
    p = argparse.ArgumentParser(
        prog="ddepoly",
        description="Generate, classify, and verify polynomial sequences driven by "
                    "P_{n+1} = A_n P_n' + B_n P_n.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="run the recurrence and print the polynomial table")
    _add_common(sp)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("classify", help="closed form of K, its vanishing points, and the matched case")
    _add_common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("verify", help="predicted vs empirically computed zero behavior")
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("admits", help="recover coefficient pairs for an arbitrary sequence")
    _add_common(sp)
    sp.add_argument("--sequence", dest="input", help="alias for --input (sequence document)")
    sp.set_defaults(fn=cmd_admits)

    sp = sub.add_parser("freud-demo", help="quartic-weight example: no polynomial pair exists at degree 5")
    _add_common(sp, family=False)
    sp.add_argument("--t", help="weight parameter t (rational or decimal), default 0")
    sp.add_argument("--n", type=int, default=6, help="degrees to compute (>= 6)")
    sp.set_defaults(fn=cmd_freud_demo)

    sp = sub.add_parser("zeros", help="CSV table of isolated zeros (n,index,lo,hi,mid), on verify's root path")
    _add_common(sp)
    sp.add_argument("--width", help="isolation width (rational, default 1/10^9)")
    sp.set_defaults(fn=cmd_zeros)
    return p


def _attach_negative_values(argv):
    """argparse takes '-1/2' or '-1e-30' for an option name; join every
    token that Fraction() parses to the option before it ('--t=-1/2')."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and tok.startswith("-"):
            try:
                Fraction(tok)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except InternalError as exc:
        return _internal_error(args, str(exc))
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KindMismatchError) as exc:  # values the model refuses, kinds mixed in a table
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TypeError, ZeroDivisionError, IndexError) as exc:
        return _internal_error(args, f"{type(exc).__name__}: {exc}")


def _internal_error(args, text):
    """Report a fault of the program, with its traceback under --debug."""
    if args.debug:
        traceback.print_exc()
    print(f"internal error: {text}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
