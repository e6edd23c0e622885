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
scaling row times verify_sequence per family and degree by the stored
command SCALING, run SCALING_RUNS times per side with the side that runs
first alternating, and keeps the median and every run: one wall-clock
run per cell spreads wider than the changes it should show.  The same
row times admits_dde on each family's own table P_0..P_N at N = 20, 36
and 60.  The file also holds the machine facts and the commands.  Only
the standard library is used; the interpreter that runs this script runs
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
import json, random, time
from fractions import Fraction as Q
from math import isqrt
from ddepoly.dde import CoefficientPair, admits_dde, generate
from ddepoly.families import FamilySpec, coefficient_source
from ddepoly.kfactor import boundary_zeros, classify
from ddepoly.poly import Poly
from ddepoly.verify import verify_sequence
F = [("bell", {}), ("hermite", {}), ("jacobi", {"alpha": "1/2", "beta": "1/2"}),
     ("euler_frobenius", {"kappa": "1", "r": "n+1"})]
row = {}
for k, p in F:
    for N in (10, 20, 30, 40, 60, 100, 200):
        t = time.perf_counter(); ok = verify_sequence(FamilySpec(k, p), N).agreement
        row[f"{k} N={N}"] = [round(time.perf_counter() - t, 3), ok]
    for N in (20, 36, 60):
        table = list(generate(coefficient_source(FamilySpec(k, p)), N).polys)
        t = time.perf_counter(); ok = admits_dde(table).all_admit
        row[f"admits {k} N={N}"] = [round(time.perf_counter() - t, 4), ok]
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
for kind in ("linear", "complex", "rational", "irrational"):
    rng = random.Random(18); pairs = [pair(rng, kind) for _ in range(500)]
    t = time.perf_counter(); ok = all(boundary_zeros(classify(c)).k_zero_count <= 2 for c in pairs)
    row[f"classify+boundary {kind}"] = [round(time.perf_counter() - t, 4), ok]
rng = random.Random(18); pairs = [pair(rng, kind, 64) for kind in ("linear", "complex", "rational", "irrational") * 125]
t = time.perf_counter(); ok = all(boundary_zeros(classify(c)).k_zero_count <= 2 for c in pairs)
row["classify+boundary wide"] = [round(time.perf_counter() - t, 4), ok]
print(json.dumps(row))
"""
SCALING_RUNS = 3


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


def scaling(checkout):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", SCALING], cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: scaling row exited {proc.returncode}\n{proc.stderr[-2000:]}")
    row = strict_json(proc.stdout)
    print(f"{os.path.basename(checkout.rstrip('/'))} scaling: {row}", file=sys.stderr)
    return row


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
                f"table P_0..P_N (cells 'admits ...') and boundary_zeros(classify(c)) wall seconds over 500 "
                f"seeded pairs whose A is linear, without real roots, with rational or with irrational roots "
                f"(cells 'classify+boundary ...'; in the 'wide' cell 125 of each kind, with numerators and "
                f"denominators up to 2^64 instead of 6 and 4), median and all {SCALING_RUNS} runs; agreement is "
                f"verify_sequence's agreement, all_admit for admits_dde, or K's vanishing-point count "
                f"within 2 on every pair",
        "command": "PYTHONPATH=src python3 -c " + shlex.quote(SCALING),
        "order": "odd runs run the parent first, even runs the change first",
    }
    rows = {"parent": [], "change": []}
    for i in range(1, SCALING_RUNS + 1):
        for side, checkout in sides if i % 2 else sides[::-1]:
            rows[side].append(scaling(checkout))
    for side, runs in rows.items():
        doc["scaling"][side] = {
            cell: {"median": statistics.median(r[cell][0] for r in runs), "runs": [r[cell][0] for r in runs],
                   "agreement": all(r[cell][1] for r in runs)}
            for cell in runs[0]
        }

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
