#!/usr/bin/env python3
"""Write a BENCH_<n>.json file from perfbench runs at a parent and a change.

    python3 tools/bench_rows.py --parent DIR --change DIR --out BENCH_<n>.json \\
        --what TEXT [--seed 21] [--pairs 10 --pair-seed 31] [--claim-workload W]

DIR is a checkout of the repository (for example one made with
`git archive`); perfbench/run.py runs there, unchanged, as

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

for every workload in the change's BENCHMARK.json, at --trace 0 and 1, on
each side, with T the benchmark's run_seconds.  The last line of each run
must be strict JSON (no NaN or Infinity) holding every metric that
tools/result_line.py asks for, and is stored as it came.  With --pairs N,
run_s of the workload whose gain is claimed (--claim-workload, by default
recover-classify) is also measured in N alternating pairs at --trace 0,
odd pairs running the parent first and even pairs the change first.  A
scaling row times verify_sequence per family and degree, admits_dde on
each family's own table P_0..P_N at N = 20, 36 and 60, classify plus
boundary_zeros on seeded pairs, and sequence_zeros over P_0..P_N as the
zeros command runs it.  Each of its CELLS runs by the stored command
SCALING in a fresh process, so that no cell inherits the heap of the
cells before it, SCALING_RUNS times per side with the side that runs
first alternating, or SLOW_RUNS times for a cell whose median on either
side reaches SLOW_CELL_S seconds after SLOW_RUNS runs; the row keeps
the median, the quartiles and every run, since one wall-clock run per
cell spreads wider than the changes it should show, and three runs did
not settle cells of 0.1-1.5 s on a two-CPU host.  A cell is `resolved`
only when the two sides' interquartile ranges do not overlap; any other
cell shows no move, whatever its medians read.
The file also holds the machine facts and the commands.  Only the
standard library is used; the interpreter that runs this script runs
perfbench too.
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys

from result_line import missing_metrics, strict_json

SCALING = """\
import json, random, sys, time
from fractions import Fraction as Q
from math import isqrt
import mpmath
from ddepoly.dde import CoefficientPair, admits_dde, generate
from ddepoly.families import FamilySpec, coefficient_source
from ddepoly.freud import freud_recurrence_coeffs, freud_sequence
from ddepoly.kfactor import boundary_zeros, classify
from ddepoly.poly import Poly
from ddepoly.roots import sequence_zeros
from ddepoly.verify import verify_sequence
F = {"bell": {}, "hermite": {}, "jacobi": {"alpha": "1/2", "beta": "1/2"},
     "euler_frobenius": {"kappa": "1", "r": "n+1"}}
def pair(rng, kind, bits=0):  # recover-classify's random pairs: A of the given kind, B of degree <= 1
    q = lambda: (Q(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)) if bits  # up to 2^bits
                 else Q(rng.randint(-6, 6), rng.randint(1, 4)))
    if kind == "linear":
        A = [q(), q() or Q(1)]
    elif kind == "rational":
        A = list((Poly.rational([-q(), 1]) * Poly.rational([-q(), 1])).scale(q() or Q(1)).coeffs)
    else:
        while True:
            A = [q(), q(), q()]; disc = A[1] ** 2 - 4 * A[0] * A[2]; r = disc.numerator * disc.denominator
            if A[2] and (disc < 0 if kind == "complex" else disc > 0 and isqrt(r) ** 2 != r):
                break
    return CoefficientPair(Poly.rational(A), Poly.rational([q(), q()]))
def zeros(polys, width):  # sequence_zeros over P_0..P_N, as `ddepoly zeros` runs it; all roots real
    t = time.perf_counter(); count = sum(len(r.zeros) for r in sequence_zeros(polys, width))
    return time.perf_counter() - t, count == sum(p.degree for p in polys)
cell = sys.argv[1]
what, rest = cell.split(" ", 1)
if what == "classify+boundary":
    if rest == "wide":
        rng = random.Random(18); pairs = [pair(rng, k, 64) for k in ("linear", "complex", "rational", "irrational") * 125]
    else:
        rng = random.Random(18); pairs = [pair(rng, rest) for _ in range(500)]
    t = time.perf_counter(); ok = all(boundary_zeros(classify(c)).k_zero_count <= 2 for c in pairs)
    out = [time.perf_counter() - t, ok]
elif what == "zeros" and rest.startswith("freud"):  # "freud t=0 N=32 512 bits"
    _, t, N, prec, _ = rest.split(" ")
    N, prec = int(N[2:]), int(prec)
    seq = freud_sequence(freud_recurrence_coeffs(Q(t[2:]), N, prec), N)
    out = list(zeros(seq.polys, mpmath.mpf(1e-9)))
elif what in ("admits", "zeros"):
    kind, N = rest.split(" N=")
    polys = generate(coefficient_source(FamilySpec(kind, F[kind])), int(N)).polys
    if what == "admits":
        t = time.perf_counter(); ok = admits_dde(list(polys)).all_admit
        out = [time.perf_counter() - t, ok]
    else:
        out = list(zeros(polys, Q(1, 10**9)))
else:
    kind, N = cell.split(" N=")
    t = time.perf_counter(); ok = verify_sequence(FamilySpec(kind, F[kind]), int(N)).agreement
    out = [time.perf_counter() - t, ok]
print(json.dumps([round(out[0], 4), out[1]]))
"""
CELLS = (
    [f"{k} N={N}" for k in ("bell", "hermite", "jacobi", "euler_frobenius") for N in (10, 20, 30, 40, 60, 100, 200)]
    + [f"admits {k} N={N}" for k in ("bell", "hermite", "jacobi", "euler_frobenius") for N in (20, 36, 60)]
    + [f"classify+boundary {k}" for k in ("linear", "complex", "rational", "irrational", "wide")]
    + [f"zeros {k} N={N}" for k in ("hermite", "jacobi", "euler_frobenius") for N in (60, 100)]
    + ["zeros freud t=0 N=32 512 bits"]
)
SCALING_RUNS, SLOW_RUNS, SLOW_CELL_S = 7, 5, 5.0


def perfbench(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    try:
        result = strict_json(lines[-1])
    except ValueError as exc:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])}: last line is not strict JSON ({exc}): {lines[-1][:200]}")
    missing = missing_metrics(result.get("metrics", {}))
    if missing:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])}: last line lacks metrics {', '.join(missing)}")
    print(f"{os.path.basename(checkout.rstrip('/'))} {workload} seed {seed} trace {trace}: "
          f"correct {result['correct']}, failed {result['failed']}", file=sys.stderr)
    return result


def scaling(checkout, cell):
    """One cell of the scaling row in a fresh process: [seconds, agreement]."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", SCALING, cell], cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: scaling cell {cell!r} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = strict_json(proc.stdout)
    print(f"{os.path.basename(checkout.rstrip('/'))} {cell}: {result}", file=sys.stderr)
    return result


def command(workload, seed, seconds, trace):
    return f"python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace {trace} | tail -n 1"


def machine(checkout):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    probe = "import mpmath, mpmath.libmp; print(mpmath.__version__, mpmath.libmp.BACKEND)"
    mp = subprocess.run([sys.executable, "-c", probe], cwd=checkout, capture_output=True, text=True).stdout.split()
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mp[0] if mp else None,
        "mpmath_backend": mp[1] if len(mp) > 1 else None,
    }


def summary(runs):
    runs = sorted(runs)
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def resolved(parent, change):
    """Whether the interquartile ranges of two summaries do not overlap."""
    return parent["q3"] < change["q1"] or change["q3"] < parent["q1"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", required=True, help="one line saying what the file measures")
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--pair-seed", type=int, default=31)
    ap.add_argument("--claim-workload", default="recover-classify", help="workload of the --pairs runs")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    if args.claim_workload not in (x["name"] for x in bench["workloads"]):
        ap.error(f"--claim-workload {args.claim_workload} is not a workload of BENCHMARK.json")
    sides = (("parent", args.parent), ("change", args.change))
    doc = {
        "what": args.what,
        "machine": machine(args.change),
        "perfbench_command": command("W", args.seed, seconds, "T"),
        "written_by": shlex.join(["python3", "tools/bench_rows.py", *sys.argv[1:]]),
        "perfbench": [],
    }
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            for side, checkout in sides:
                result = perfbench(checkout, w, args.seed, seconds, trace)
                doc["perfbench"].append({"side": side, "workload": w, "seed": args.seed, "trace": trace, "result": result})

    doc["scaling"] = {
        "what": f"verify_sequence wall seconds at width 1e-9, admits_dde wall seconds on the family's own "
                f"table P_0..P_N (cells 'admits ...'), boundary_zeros(classify(c)) wall seconds over 500 "
                f"seeded pairs whose A is linear, without real roots, with rational or with irrational roots "
                f"(cells 'classify+boundary ...'; in the 'wide' cell 125 of each kind, with numerators and "
                f"denominators up to 2^64 instead of 6 and 4) and sequence_zeros wall seconds over the members "
                f"P_0..P_N at width 1e-9, as the zeros command runs it (cells 'zeros ...'; the Freud members "
                f"at 512 bits), median, quartiles and all {SCALING_RUNS} runs ({SLOW_RUNS} for a cell whose median "
                f"reaches {SLOW_CELL_S} s on either side), each cell in its own process; agreement "
                f"is verify_sequence's agreement, all_admit for admits_dde, K's vanishing-point count within "
                f"2 on every pair, or every root of every member real; 'resolved' is true for a cell whose "
                f"parent and change interquartile ranges do not overlap",
        "command": "PYTHONPATH=src python3 -c " + shlex.quote(SCALING) + " CELL",
        "order": "for each cell, odd runs run the parent first, even runs the change first",
    }
    rows = {"parent": {}, "change": {}}
    for cell in CELLS:
        i = 0
        while i < SLOW_RUNS or (i < SCALING_RUNS and max(statistics.median(r[0] for r in rows[side][cell])
                                                         for side in rows) < SLOW_CELL_S):
            i += 1
            for side, checkout in sides if i % 2 else sides[::-1]:
                rows[side].setdefault(cell, []).append(scaling(checkout, cell))
    for side, cells in rows.items():
        doc["scaling"][side] = {
            cell: {**summary([r[0] for r in runs]), "runs": [r[0] for r in runs], "agreement": all(r[1] for r in runs)}
            for cell, runs in cells.items()
        }
    doc["scaling"]["resolved"] = {cell: resolved(doc["scaling"]["parent"][cell], doc["scaling"]["change"][cell])
                                  for cell in CELLS}

    if args.pairs:
        pairs, runs = [], {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            row = {"pair": i}
            for side, checkout in sides if i % 2 else sides[::-1]:
                result = perfbench(checkout, args.claim_workload, args.pair_seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{side}: pair {i} run is not correct")
                row[side] = result["metrics"]["run_s"]["value"]
                runs[side].append(row[side])
            pairs.append(row)
        wins = sum(p["change"] < p["parent"] for p in pairs)
        doc["claimed_gain"] = {
            "metric": "run_s",
            "workload": args.claim_workload,
            "command": command(args.claim_workload, args.pair_seed, seconds, 0),
            "order": "odd pairs run the parent first, even pairs the change first",
            "pairs": pairs,
            "change_wins": f"{wins}/{len(pairs)}",
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
        }

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
