#!/usr/bin/env python3
"""ddepoly benchmark: one workload, one single-threaded process, a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ddepoly is imported from ./src.  The run
builds the workload's inputs from the seed, then repeats whole passes over
the workload's operations, one operation at a time, until S seconds have
gone by (the pass under way is finished).  Every output is checked by
perfbench/checks.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 passes alternate untraced and
traced, the metrics are per module, and the spans are written to
perfbench-out/trace-<workload>-<seed>.jsonl.

Times are in reference seconds: each measured time is scaled by how fast
a fixed piece of work (`calibrate`) ran around it, so that the host's own
speed changes cancel out; see perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# Single-threaded: numpy's BLAS reads these when it loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_PROBES = 7  # processes that only set up, for a median setup_s
CAL_REFERENCE_S = 0.011  # one calibration's time at the reference speed
CAL_EVERY_S = 0.1  # operation time between two calibrations
MODULES = ("verify", "roots", "poly", "dde", "kfactor", "freud", "documents", "families")

PER_LAYER = (
    "verify.verify_sequence_s", "verify.self_s", "verify.members",
    "roots.interlaces_s", "roots.interlaces_calls", "roots.is_real_simple_s", "roots.is_real_simple_calls",
    "roots.locate_real_roots_s", "roots.locate_real_roots_calls", "roots.locates_per_member",
    "roots.isolate_roots_s", "roots.isolate_roots_calls", "roots.sturm_count_calls", "roots.roots_returned",
    "roots.self_s",
    "poly.gcd_s", "poly.gcd_calls", "poly.divrem_calls", "poly.squarefree_decomposition_s",
    "poly.max_coeff_bits", "poly.self_s",
    "dde.generate_s", "dde.admits_dde_s", "dde.sample_xy_s", "dde.self_s",
    "kfactor.classify_s", "kfactor.classify_calls", "kfactor.boundary_zeros_s", "kfactor.decide_case_s",
    "kfactor.self_s",
    "freud.freud_recurrence_coeffs_s", "freud.freud_sequence_s", "freud.self_s",
    "documents.dump_report_s", "documents.zeros_csv_s", "documents.output_bytes", "documents.self_s",
    "bench.self_s", "trace.overhead_s",
)


def load_program():
    """Import ddepoly from this checkout's src/, or stop with an error."""
    pkg = SRC / "ddepoly"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no ddepoly sources under {pkg}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import importlib
    mods = {m: importlib.import_module(f"ddepoly.{m}") for m in MODULES}
    if Path(mods["verify"].__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: ddepoly was imported from {mods['verify'].__file__}, not from {pkg}")
    return SimpleNamespace(**mods)


_CAL_DATA = []  # the memory walk's table and its order, made on first use


def calibrate():
    """Time a fixed piece of work in three parts of about 4 ms each on
    the reference host: machine-word integer arithmetic, a walk in random
    order through a 3 MB table of floats, and a sum of Fractions with
    growing denominators.  Each part follows a different way the host's
    speed changes (clock, caches, big-integer arithmetic and allocation);
    together they follow ddepoly's own speed."""
    if not _CAL_DATA:
        import random
        rng = random.Random(0)
        table = [rng.random() for _ in range(100_000)]
        order = list(range(0, len(table), 11))
        rng.shuffle(order)
        _CAL_DATA.extend((table, order))
    from fractions import Fraction
    table, order = _CAL_DATA
    t0 = time.perf_counter()
    a = 1
    for i in range(10_000):
        a = (a * 0x9E3779B97F4A7C15 + i) % 0xFFFFFFFFFFFFFFC5
    s = 0.0
    for i in order:
        s += table[i]
    f = Fraction(0)
    for i in range(1, 500):
        f += Fraction(1, i * i + 1)
    return time.perf_counter() - t0


def setup(workload, seed):
    dd = load_program()
    import workloads
    return dd, workloads.build(workload, seed, dd), time.perf_counter() - _START


def probe_setup(args):
    """Set-up time of a fresh process, interpreter imports plus input
    building, in reference seconds (calibrated just before and after)."""
    before = calibrate()
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", args.workload, "--seed", str(args.seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw = json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]
    return raw * CAL_REFERENCE_S / statistics.mean((before, calibrate()))


def attempt(op, fn):
    """Run one operation and check it; returns (seconds, error or None)."""
    from checks import CheckError
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except CheckError as exc:
        return dt, str(exc)
    except Exception as exc:  # output no longer has the checked shape
        return dt, f"check raised {type(exc).__name__}: {exc}"
    return dt, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-families", "zeros-deep", "recover-classify", "float-mode"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    dd, ops, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = []

    import selftest
    problems = [f"self-test: {p}" for p in selftest.problems(dd)]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    # op_times holds reference seconds: the operations timed since the last
    # calibration wait in `pending` and are scaled by the mean of the
    # calibrations on either side of them.
    op_times = {False: [[] for _ in ops], True: [[] for _ in ops]}
    pending, since_cal, cal_before = [], 0.0, calibrate()

    def flush():
        nonlocal pending, since_cal, cal_before
        cal_after = calibrate()
        scale = CAL_REFERENCE_S / statistics.mean((cal_before, cal_after))
        for traced, i, dt in pending:
            op_times[traced][i].append(dt * scale)
        pending, since_cal, cal_before = [], 0.0, cal_after

    traced_ids = []
    attempted = failed = 0
    t_begin = time.perf_counter()
    pass_id = 0
    while True:
        # Every pass starts from the same collector state, and the cyclic
        # collector no longer walks the benchmark's own objects (inputs,
        # recorded times, checker caches), which grow from pass to pass.
        gc.collect()
        gc.freeze()
        traced = tracer is not None and pass_id % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass(pass_id)
        total = 0.0
        for i, op in enumerate(ops):
            dt, err = attempt(op, tracer.op(i, op.run) if traced else op.run)
            total += dt
            attempted += 1
            pending.append((traced, i, dt))
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                flush()
            if err is not None:
                failed += 1
                if not op.known_fault:
                    problems.append(f"{op.name}: {err}")
        if pending:
            flush()
        if traced:
            tracer.end_pass()
            tracer.uninstall()
            traced_ids.append(pass_id)
        print(f"perfbench: pass {pass_id}{' traced' if traced else ''}: {total:.4f} s in operations "
              f"(wall clock), calibration {cal_before * 1e3:.2f} ms, "
              f"{failed} of {attempted} operations failed so far", file=sys.stderr)
        pass_id += 1
        if tracer is None and len(setups) < SETUP_PROBES:  # spread the set-up samples over the run
            setups.append(probe_setup(args))
        if time.perf_counter() - t_begin >= args.seconds and (tracer is None or pass_id % 2 == 0):
            break
    while tracer is None and len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args))

    # Each operation's time is its median over the run's passes, in
    # reference seconds.
    med = {mode: [statistics.median(t) for t in times] for mode, times in op_times.items() if times[0]}
    if tracer is None:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (sum(med[False]), "s"),
            "op_p50_s": (statistics.median(med[False]), "s"),
            "op_max_s": (max(med[False]), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        found = tracer.metrics(traced_ids)
        found["trace.overhead_s"] = (sum(med[True]) - sum(med[False]), "s")
        values = {k: found[k] for k in PER_LAYER if k in found}
        gap = tracer.self_time_error(traced_ids)
        if gap > 1e-6:
            problems.append(f"trace: self times miss an operation's wall time by {gap:.3g} s")
        if tracer.missing:
            print(f"perfbench: not found, metrics left out: {', '.join(tracer.missing)}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")

    for p in problems[:10]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
