"""Spans and counts around the package's public functions, for the traced run.

Only the traced run installs these wrappers; the untraced run that gives the
end-to-end metrics calls the package as it is.  A wrapper replaces a function
in every `sp4whittaker` module that holds a reference to it, so calls made
through names imported into another module are seen too.

Each wrapped call becomes a span: name, start, end, the span that caused it
and the operation it belongs to.  Spans stay in memory and are written out
when the run ends.  The two hottest leaves, `whittaker_w` and
`RadialFunction.evaluate`, run thousands of times per operation; their calls
are summed per name instead of kept one by one, which keeps a run's memory
bounded, but their time still counts as child time of the span that called
them.  A span's self time is its duration minus the time of its children.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict

_TERMINATING_TOL = 1e-9


def w_regime(kappa: float, mu: float) -> str:
    """The regime that serves W_{kappa,mu}, by the rule in the specialfns docstring."""
    mu = abs(mu)
    n = kappa - mu - 0.5
    if n > -_TERMINATING_TOL and abs(n - round(n)) < _TERMINATING_TOL:
        return "terminating"
    return "integral" if mu - kappa + 0.5 > 0.0 else "climb"


def _w_args(args, kwargs):
    idx = args[0] if args else kwargs.get("idx")
    y = args[1] if len(args) > 1 else kwargs.get("y")
    if idx is not None:
        return float(idx.kappa), abs(float(idx.mu)), float(y)
    return float(kwargs["kappa"]), abs(float(kwargs["mu"])), float(y)


class Tracer:
    """Records spans and counts for the operation that is current."""

    HOT = frozenset({"specialfns.whittaker_w", "radial.evaluate"})

    def __init__(self):
        self.spans = []          # (span_id, parent_id, op_id, name, start_ns, end_ns)
        self.stack = []          # open spans: [span_id, child_ns]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.op = None
        self.ops = 0
        self._next_id = 0
        self._undo = []
        # whittaker_w: inputs seen in this operation and in this process
        self._seen_op = set()
        self._seen_process = set()

    def run_op(self, op_id, name, fn, *args):
        """Run fn(*args) as operation op_id under a root span."""
        self.op = op_id
        self.ops += 1
        self._seen_op = set()
        try:
            return self._call(name, fn, args, {})
        finally:
            self.op = None

    def _call(self, name, fn, args, kwargs, on_end=None):
        if self.op is None:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1][1] += dur
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - frame[1]
            if on_end is not None:
                on_end(dur)
            if name not in self.HOT:
                self.spans.append((sid, parent, self.op, name, t0, t1))

    def span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def w_wrapper(self, fn):
        """whittaker_w: a span, plus regime, repeat and first-seen bookkeeping."""
        name = "specialfns.whittaker_w"

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            key = _w_args(args, kwargs)
            regime = w_regime(key[0], key[1])
            if key in self._seen_op:
                self.counts["w.repeat_in_op"] += 1
            self._seen_op.add(key)
            first = key not in self._seen_process
            if not first:
                self.counts["w.repeat_in_process"] += 1
            self._seen_process.add(key)

            def on_end(dur):
                self.counts[f"w.{regime}.calls"] += 1
                if first:
                    self.counts[f"w.{regime}.first_calls"] += 1
                    self.counts[f"w.{regime}.first_ns"] += dur
            return self._call(name, fn, args, kwargs, on_end)
        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, attr, wrapper_of, skip_modules=()):
        """Replace module.attr in every sp4whittaker module that binds it."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("sp4whittaker") or mod_name in skip_modules:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def patch_method(self, cls, attr, wrapper_of, static=False):
        original = cls.__dict__[attr]
        fn = original.__func__ if static else original
        wrapped = wrapper_of(fn)
        setattr(cls, attr, staticmethod(wrapped) if static else wrapped)
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def summary(self) -> dict:
        return {"ops": self.ops,
                "calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns), "counts": dict(self.counts)}

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "op": op,
                                     "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions whose spans and counts the traced run reports."""
    import sp4whittaker.exact as exact
    import sp4whittaker.ktypes as ktypes
    import sp4whittaker.radial as radial
    import sp4whittaker.report as report
    import sp4whittaker.solutions as solutions
    import sp4whittaker.specialfns as specialfns
    import sp4whittaker.verify as verify

    span = tracer.span_wrapper
    count = tracer.count_wrapper
    tracer.patch_function(specialfns, "whittaker_w", tracer.w_wrapper)
    for fn in ("whittaker_w_oracle", "check_contiguous"):
        tracer.patch_function(specialfns, fn, lambda f, n=f"specialfns.{fn}": span(n, f))
    for fn in ("radial_system_residual", "raising_lowering_check",
               "borel_recurrence_solve", "compare_borel_formulas"):
        tracer.patch_function(solutions, fn, lambda f, n=f"solutions.{fn}": span(n, f))
    tracer.patch_function(exact, "kernel_basis",
                          lambda f: span("exact.kernel_basis", f))
    tracer.patch_method(exact.ExactMatrix, "inverse",
                        lambda f: span("exact.inverse", f))
    tracer.patch_method(exact.ExactMatrix, "rank", lambda f: count("exact.rank", f))
    for fn in ("beta_matrix", "check_beta_identities"):
        tracer.patch_function(ktypes, fn, lambda f, n=f"ktypes.{fn}": span(n, f))
    for suite in ("lie", "beta", "siegel", "borel", "fj", "rules"):
        tracer.patch_function(verify, f"suite_{suite}",
                              lambda f, n=f"verify.{suite}": span(n, f))
    # dumps recurses through its own module global; only the outer call,
    # made from the command line, is a span
    tracer.patch_function(report, "dumps", lambda f: span("report.dumps", f),
                          skip_modules=("sp4whittaker.report",))
    RF = radial.RadialFunction
    tracer.patch_method(RF, "evaluate", lambda f: span("radial.evaluate", f))
    for fn in ("d1", "d2", "mul_y1", "scale"):
        tracer.patch_method(RF, fn, lambda f, n=f"radial.{fn}": count(n, f))
    tracer.patch_method(RF, "from_dict", lambda f: count("radial.from_dict", f),
                        static=True)
    return tracer


def _mean(total, n, scale):
    return total / n / scale if n else 0.0


def layer_metrics(s: dict) -> dict:
    """Per-layer metric values from a (merged) tracer summary.

    Times are means per call of the wrapped public function, including its
    children; W times per regime count only inputs the process had not seen
    before, so the package's cache cannot have served them.  Counts are per
    operation.
    """
    calls, total, counts = s["calls"], s["total_ns"], s["counts"]
    ops = max(s["ops"], 1)

    def per_call(name, scale):
        return _mean(total.get(name, 0), calls.get(name, 0), scale)

    def w_first(regime, scale):
        return _mean(counts.get(f"w.{regime}.first_ns", 0),
                     counts.get(f"w.{regime}.first_calls", 0), scale)

    w_calls = calls.get("specialfns.whittaker_w", 0)
    out = {
        "specialfns.w_terminating_us": w_first("terminating", 1e3),
        "specialfns.w_integral_ms": w_first("integral", 1e6),
        "specialfns.w_climb_ms": w_first("climb", 1e6),
        "specialfns.w_calls": w_calls / ops,
        "specialfns.w_repeat_share": (counts.get("w.repeat_in_op", 0) / w_calls
                                      if w_calls else 0.0),
        "specialfns.w_process_repeat_share": (counts.get("w.repeat_in_process", 0) / w_calls
                                              if w_calls else 0.0),
        "specialfns.oracle_ms": per_call("specialfns.whittaker_w_oracle", 1e6),
        "specialfns.check_contiguous_ms": per_call("specialfns.check_contiguous", 1e6),
        "radial.evaluate_us": per_call("radial.evaluate", 1e3),
        "radial.d1_calls": counts.get("radial.d1", 0) / ops,
        "radial.d2_calls": counts.get("radial.d2", 0) / ops,
        "radial.mul_y1_calls": counts.get("radial.mul_y1", 0) / ops,
        "radial.from_dict_calls": counts.get("radial.from_dict", 0) / ops,
        "radial.scale_calls": counts.get("radial.scale", 0) / ops,
        "solutions.radial_system_residual_ms": per_call("solutions.radial_system_residual", 1e6),
        "solutions.raising_lowering_check_ms": per_call("solutions.raising_lowering_check", 1e6),
        "solutions.borel_recurrence_solve_ms": per_call("solutions.borel_recurrence_solve", 1e6),
        "solutions.compare_borel_formulas_ms": per_call("solutions.compare_borel_formulas", 1e6),
        "exact.kernel_basis_ms": per_call("exact.kernel_basis", 1e6),
        "exact.kernel_basis_calls": calls.get("exact.kernel_basis", 0) / ops,
        "exact.rank_calls": counts.get("exact.rank", 0) / ops,
        "exact.inverse_ms": per_call("exact.inverse", 1e6),
        "ktypes.beta_matrix_ms": per_call("ktypes.beta_matrix", 1e6),
        "ktypes.check_beta_identities_ms": per_call("ktypes.check_beta_identities", 1e6),
    }
    for suite in ("lie", "beta", "siegel", "borel", "fj", "rules"):
        out[f"verify.{suite}_s"] = per_call(f"verify.{suite}", 1e9)
    out["report.dumps_ms"] = per_call("report.dumps", 1e6)
    return out


def merge(summaries) -> dict:
    out = {"ops": 0, "calls": defaultdict(int), "total_ns": defaultdict(int),
           "self_ns": defaultdict(int), "counts": defaultdict(int)}
    for s in summaries:
        out["ops"] += s["ops"]
        for key in ("calls", "total_ns", "self_ns", "counts"):
            for name, v in s[key].items():
                out[key][name] += v
    return {k: (dict(v) if isinstance(v, defaultdict) else v) for k, v in out.items()}


def import_times(lines) -> dict:
    """import.total_ms, import.scipy_ms, import.mpmath_ms from -X importtime output.

    scipy and mpmath are charged with the cumulative time of their outermost
    import lines, so a package imported inside another counts once.
    """
    rows = []
    for line in lines:
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        rows.append((name.strip(), depth, int(cumulative)))

    def outermost(top):
        mine = [(d, c) for n, d, c in rows if n == top or n.startswith(top + ".")]
        if not mine:
            return 0.0
        dmin = min(d for d, _ in mine)
        return sum(c for d, c in mine if d == dmin) / 1e3

    total = next((c for n, _, c in rows if n == "sp4whittaker"), math.nan)
    return {"import.total_ms": total / 1e3, "import.scipy_ms": outermost("scipy"),
            "import.mpmath_ms": outermost("mpmath")}
