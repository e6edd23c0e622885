"""Command-line front end.

Commands: generate, classify, verify, admits, freud-demo, zeros.  Each
registers only the options it reads (`_COMMANDS`); any other option exits 2.
Exit codes: 0 success; 1 verification disagreement or hypothesis failure;
2 input/schema error; 3 numeric abort (the Freud recurrence exhausted its
precision); 4 internal error (an exact-kernel invariant failed, or any
other exception escaped: a bug, since every input is parsed where it is
read and refused there as a DocumentError);
--debug adds the traceback of an internal error to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

import mpmath

from . import __version__
from .dde import PolySequence, admits_dde, generate, sample_xy
from .documents import DocumentError, InputDocument, dump_report, zeros_csv
from .families import FAMILIES, FAMILY_KINDS, FamilySpec, ParameterError, coefficient_source
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

_PARAMETERS = tuple(dict.fromkeys(name for params in FAMILIES.values() for name in params))


def _family(kind, args):
    """The family `kind` with the parameters given as flags; a refused one is named by its flag."""
    params = {name: v for name in _PARAMETERS if (v := getattr(args, name, None)) is not None}
    precision = getattr(args, "precision", None)
    try:
        return FamilySpec(kind, params, 256 if precision is None else precision)
    except ParameterError as exc:
        raise DocumentError(f"--{exc.name}", str(exc)) from None


def _resolve_input(args, sequences=False):
    """The input as (spec, table, N, doc), from --input or the family flags;
    a sequence document, where the command takes one, is (None, None, None, doc).
    A family flag or --precision beside --input, which no path reads, is refused."""
    if args.input:
        flag = next((f for f in (*_FAMILY_FLAGS, "--precision") if getattr(args, f[2:], None) is not None), None)
        if flag:
            raise DocumentError(flag, "not read with --input, whose document holds the input")
        doc = InputDocument.load(args.input)
        if doc.sequence is not None and not sequences:
            raise DocumentError("$", f"{args.command} needs a family or coefficient table")
        return doc.family, doc.coefficients, doc.N, doc
    if not args.family:
        raise DocumentError("$", "either --input or --family is required")
    if args.n is None:
        raise DocumentError("$", "--n is required with --family")
    return _family(args.family, args), None, args.n, None


def _source(spec, table):
    """The coefficient source of a family or table; freud has none (ValueError)."""
    return coefficient_source(spec) if spec is not None else table


def _members(spec, table, N, doc):
    """P_0..P_N: a sequence document's, or those a coefficient table or a
    family generates (freud by its three-term recurrence, at the spec's precision)."""
    if spec is None and table is None:
        return PolySequence(tuple(doc.sequence))
    if spec is not None and spec.kind == "freud":
        return freud_sequence(freud_recurrence_coeffs(**spec.values, N=N, precision=spec.precision), N)
    return generate(_source(spec, table), N)


def _tolerance(args, doc):
    if args.tolerance is not None:
        return args.tolerance
    return doc.tolerance if doc is not None else 1e-12


def _write(args, text):
    """Send a JSON report or a CSV table to --out, else to stdout."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError("--out", f"cannot write {args.out}: {exc}") from None


def cmd_generate(args):
    spec, table, N, doc = _resolve_input(args)
    seq = _members(spec, table, N, doc)
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
    _write(args, dump_report(payload, timestamp=not args.no_timestamp))
    return EXIT_OK if seq.truncated_at is None else EXIT_DISAGREE


def cmd_classify(args):
    spec, table, N, doc = _resolve_input(args)
    specs, gamma, decision = predict(_source(spec, table), N, args.strict_extension)
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
    _write(args, dump_report(payload, timestamp=not args.no_timestamp))
    return EXIT_OK if decision.ok else EXIT_DISAGREE


def cmd_verify(args):
    spec, table, N, doc = _resolve_input(args)
    report = verify_sequence(spec if spec is not None else table, N, strict_extension=args.strict_extension)
    if args.format == "csv":
        rows = [(rec.n, idx, iv) for rec in report.records for idx, iv in enumerate(rec.zeros)]
        _write(args, zeros_csv(rows))
    else:
        _write(args, dump_report({"command": "verify", "report": report}, timestamp=not args.no_timestamp))
    return EXIT_OK if report.agreement else EXIT_DISAGREE


def cmd_admits(args):
    spec, table, N, doc = _resolve_input(args, sequences=True)
    seq = doc.sequence if spec is None and table is None else generate(_source(spec, table), N).polys
    result = admits_dde(list(seq), tolerance=_tolerance(args, doc))
    _write(args, dump_report({"command": "admits", "result": result}, timestamp=not args.no_timestamp))
    return EXIT_OK if result.all_admit else EXIT_DISAGREE


def cmd_freud_demo(args):
    spec = _family("freud", args)
    prec = spec.precision
    tol = _tolerance(args, None)
    N = 6 if args.n is None else args.n
    if N < 6:
        raise DocumentError("$", "the demo needs N >= 6 to reach the degree-5 decision")
    data = freud_recurrence_coeffs(**spec.values, N=N, precision=prec)
    seq = freud_sequence(data, N)
    alpha, beta, zp, zm = p5_invariants(data)
    with mpmath.workprec(prec):
        expected = sorted([-mpmath.sqrt(zp), -mpmath.sqrt(zm), mpmath.mpf(0), mpmath.sqrt(zm), mpmath.sqrt(zp)])
        width = mpmath.mpf(2) ** (-prec // 2)
    xy = sample_xy(seq[5], seq[6], width)  # x_k: the zeros of P_5, isolated once
    with mpmath.workprec(prec):
        zero_err = max(abs(x - e) / (1 + abs(e)) for (x, _), e in zip(xy, expected))
    result = admits_dde(list(seq.polys), tolerance=tol)
    fail5 = result.entry(5)
    with mpmath.workprec(prec):
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
        **spec.values,
        "precision": prec,
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
    _write(args, dump_report(payload, timestamp=not args.no_timestamp))
    return EXIT_OK if reproduced else EXIT_DISAGREE


def cmd_zeros(args):
    spec, table, N, doc = _resolve_input(args, sequences=True)
    try:
        width = Fraction(1, 10**9) if args.width is None else Fraction(args.width)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError("--width", f"bad value {args.width!r}: {exc}") from None
    polys = _members(spec, table, N, doc).polys
    rows = [(n, idx, iv) for n, rec in enumerate(sequence_zeros(polys, width)) for idx, iv in enumerate(rec.zeros)]
    _write(args, zeros_csv(rows))
    return EXIT_OK


_FAMILY_FLAGS = ("--family", "--n", *(f"--{name}" for name in _PARAMETERS))
_OPTIONS = {
    "--input": dict(help="JSON input document (family, sequence, or coefficient table)"),
    "--sequence": dict(dest="input", help="alias for --input (sequence document)"),
    "--out": dict(help="write the report to this path instead of stdout"),
    "--format": dict(choices=("json", "csv"), default="json", help="csv: the table of isolated zeros"),
    "--precision": dict(type=int, help="big-float working precision in bits, default 256"),
    "--tolerance": dict(type=float,
                        help="relative residual tolerance (float mode; default: the input document's, else 1e-12)"),
    "--no-timestamp": dict(action="store_true", help="omit the timestamp field (byte-stable output)"),
    "--strict-extension": dict(action="store_true",
                               help="refuse coefficient pairs whose quadratic A has no real roots"),
    "--debug": dict(action="store_true", help="print the traceback of an internal error (exit 4)"),
    "--width": dict(help="isolation width (rational, default 1/10^9)"),
    "--family": dict(choices=FAMILY_KINDS),
    "--n": dict(type=int, help="largest degree N (freud-demo: >= 6, default 6)"),
    **{f"--{name}": dict(help="; ".join(f"{kind}: {p.form}, default {p.default}"
                                        for kind, params in FAMILIES.items() if (p := params.get(name))))
       for name in _PARAMETERS},
}
# each command with its help line and the options it reads besides --out and --debug
_COMMANDS = {
    "generate": (cmd_generate, "run the recurrence and print the polynomial table",
                 ("--input", "--precision", "--no-timestamp", *_FAMILY_FLAGS)),
    "classify": (cmd_classify, "closed form of K, its vanishing points, and the matched case",
                 ("--input", "--no-timestamp", "--strict-extension", *_FAMILY_FLAGS)),
    "verify": (cmd_verify, "predicted vs empirically computed zero behavior",
               ("--input", "--format", "--no-timestamp", "--strict-extension", *_FAMILY_FLAGS)),
    "admits": (cmd_admits, "recover coefficient pairs for an arbitrary sequence",
               ("--input", "--sequence", "--tolerance", "--no-timestamp", *_FAMILY_FLAGS)),
    "freud-demo": (cmd_freud_demo, "quartic-weight example: no polynomial pair exists at degree 5",
                   ("--precision", "--tolerance", "--no-timestamp", "--n", *map("--{}".format, FAMILIES["freud"]))),
    "zeros": (cmd_zeros, "CSV table of isolated zeros (n,index,lo,hi,mid), on verify's root path",
              ("--input", "--precision", "--width", *_FAMILY_FLAGS)),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="ddepoly",
        description="Generate, classify, and verify polynomial sequences driven by "
                    "P_{n+1} = A_n P_n' + B_n P_n.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, text, opts) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for opt in ("--out", "--debug", *opts):
            sp.add_argument(opt, **_OPTIONS[opt])
        sp.set_defaults(fn=fn)
    return p


def _attach_negative_values(argv):
    """argparse takes '-1/2' or '-1e-30' for an option name; join every
    token that Fraction() parses to the option before it ('--alpha=-1/2')."""
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
    except Exception as exc:  # anything else escaping a command is a fault of the program
        return _internal_error(args, f"{type(exc).__name__}: {exc}")


def _internal_error(args, text):
    """Report a fault of the program, with its traceback under --debug."""
    if args.debug:
        traceback.print_exc()
    print(f"internal error: {text}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
