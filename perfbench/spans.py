"""Spans around calls into ddepoly's public functions, from outside.

`Tracer.install()` replaces each listed function, on every ddepoly module
that binds it (the sites where callers import it), with a wrapper that
records a span: name, start, end, parent span and operation id.  Methods
of Poly are wrapped on the class.  Spans stay in memory; `metrics()`
derives per-module figures from them and `dump()` writes them out.
A function that no longer exists is reported as missing and its metrics
are left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# (module, function) pairs that get a span; "Poly.x" is a method.
SPANNED = (
    ("verify", "verify_sequence"),
    ("roots", "interlaces"), ("roots", "is_real_simple"), ("roots", "locate_real_roots"),
    ("roots", "isolate_roots"), ("roots", "sturm_count"),
    ("poly", "Poly.gcd"), ("poly", "squarefree_decomposition"),
    ("dde", "generate"), ("dde", "admits_dde"), ("dde", "sample_xy"),
    ("kfactor", "classify"), ("kfactor", "boundary_zeros"), ("kfactor", "decide_case"),
    ("freud", "freud_recurrence_coeffs"), ("freud", "freud_sequence"),
    ("documents", "dump_report"), ("documents", "zeros_csv"),
)
# Called too often for a span each; only counted.
COUNTED = (("poly", "Poly.divrem"),)

MODULES = ("verify", "roots", "poly", "dde", "kfactor", "freud", "documents", "bench")
OP_SPAN = "bench.op"


def _span_name(mod, fn):
    return f"{mod}.{fn.split('.')[-1]}"


def _max_bits(polys):
    bits = 0
    for p in polys:
        for c in getattr(p, "coeffs", ()):
            if hasattr(c, "denominator"):
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, pass id]
        self.stack = []
        self.op_id = -1
        self.pass_id = -1
        self.counts = {}
        self.sizes = {"verify.members": 0, "roots.roots_returned": 0, "poly.max_coeff_bits": 0,
                      "documents.output_bytes": 0}
        self.pass_sizes = []
        self.missing = []
        self._restore = []

    # ---------------------------------------------------------------- wrapping
    def _wrap_span(self, fn, name):
        spans, stack = self.spans, self.stack
        hook = self._HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, self.pass_id])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function where ddepoly binds it."""
        for group, make in ((SPANNED, self._wrap_span), (COUNTED, self._wrap_count)):
            for mod, fn in group:
                name = _span_name(mod, fn)
                module = sys.modules.get(f"ddepoly.{mod}")
                if "." in fn:
                    cls = getattr(module, fn.split(".")[0], None)
                    orig = getattr(cls, "__dict__", {}).get(fn.split(".")[1])
                    if orig is None:
                        self.missing.append(name)
                        continue
                    setattr(cls, fn.split(".")[1], make(orig, name))
                    self._restore.append((cls, fn.split(".")[1], orig))
                    continue
                orig = getattr(module, fn, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapped = make(orig, name)
                for mname, m in list(sys.modules.items()):
                    if m is None or not (mname == "ddepoly" or mname.startswith("ddepoly.")):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ---------------------------------------------------------------- passes and ops
    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.counts.clear()
        for k in self.sizes:
            self.sizes[k] = 0

    def end_pass(self):
        self.pass_sizes.append((self.pass_id, dict(self.counts), dict(self.sizes)))

    def op(self, op_id, fn):
        """fn wrapped in the root span of operation op_id."""
        self.op_id = op_id
        return self._wrap_span(fn, OP_SPAN)

    # result hooks: sizes read off the calls' arguments and results
    def _members(self, args, result):
        self.sizes["verify.members"] += len(result.records)

    def _roots(self, args, result):
        self.sizes["roots.roots_returned"] += result.count
        self._bits(args[:1])

    def _gen(self, args, result):
        self._bits(result.polys)

    def _table(self, args, result):
        self._bits(args[0])

    def _text(self, args, result):
        self.sizes["documents.output_bytes"] += len(result.encode())

    def _bits(self, polys):
        self.sizes["poly.max_coeff_bits"] = max(self.sizes["poly.max_coeff_bits"], _max_bits(polys))

    _HOOKS = {"verify.verify_sequence": _members, "roots.isolate_roots": _roots,
              "dde.generate": _gen, "dde.admits_dde": _table,
              "documents.dump_report": _text, "documents.zeros_csv": _text}

    # ---------------------------------------------------------------- derived figures
    def pass_figures(self, pass_id):
        """Per-pass totals: inclusive time per span name (outermost only),
        call counts, self time per module, and the op wall times."""
        spans = [s for s in self.spans if s[5] == pass_id]
        first = next(i for i, s in enumerate(self.spans) if s[5] == pass_id)
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3] - first] += s[2] - s[1]
        incl, calls, self_mod, op_wall, op_self = {}, {}, dict.fromkeys(MODULES, 0.0), {}, {}
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            calls[name] = calls.get(name, 0) + 1
            own = dur - child[i]
            self_mod[name.split(".")[0]] += own
            op_self[s[4]] = op_self.get(s[4], 0.0) + own
            if name == OP_SPAN:
                op_wall[s[4]] = dur
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur
        return incl, calls, self_mod, op_wall, op_self

    def self_time_error(self, pass_ids):
        """Largest gap, over ops, between the sum of self times and the op's wall time."""
        worst = 0.0
        for pid in pass_ids:
            _, _, _, op_wall, op_self = self.pass_figures(pid)
            for op, wall in op_wall.items():
                worst = max(worst, abs(op_self[op] - wall))
        return worst

    def metrics(self, pass_ids):
        """Per-module metrics: medians over the traced passes for times,
        the per-pass figure for counts and sizes."""
        figs = [self.pass_figures(pid) for pid in pass_ids]
        sizes = {pid: (c, s) for pid, c, s in self.pass_sizes}
        out = {}

        def time_metric(key, getter):
            out[key] = (statistics.median(getter(f) for f in figs), "s")

        def count_metric(key, getter, unit="count"):
            out[key] = (statistics.median(getter(pid, f) for pid, f in zip(pass_ids, figs)), unit)

        for mod, fn in SPANNED:
            name = _span_name(mod, fn)
            if name in self.missing:
                continue
            time_metric(f"{name}_s", lambda f, n=name: f[0].get(n, 0.0))
            count_metric(f"{name}_calls", lambda pid, f, n=name: f[1].get(n, 0))
        for mod, fn in COUNTED:
            name = _span_name(mod, fn)
            if name not in self.missing:
                count_metric(f"{name}_calls", lambda pid, f, n=name: sizes[pid][0].get(n, 0))
        for mod in MODULES:
            time_metric(f"{mod}.self_s", lambda f, m=mod: f[2][m])
        for key, unit in (("verify.members", "count"), ("roots.roots_returned", "count"),
                          ("poly.max_coeff_bits", "bits"), ("documents.output_bytes", "bytes")):
            count_metric(key, lambda pid, f, k=key: sizes[pid][1][k], unit)
        if "roots.locate_real_roots_calls" in out:
            members = out["verify.members"][0]
            out["roots.locates_per_member"] = (out["roots.locate_real_roots_calls"][0] / members if members else 0.0,
                                               "ratio")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, pid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "pass": pid}) + "\n")
