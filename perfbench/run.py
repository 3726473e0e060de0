"""Benchmark of sp4whittaker: five workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload w-domain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run builds seeded inputs, runs whole rounds of its workload's operations
in this process (or, for verify-suites, one fresh process per operation)
until --seconds have passed, checks every output, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run.  `--workload all` runs every workload in
turn and prints one line per workload.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("w-domain", "w-contiguous", "siegel-residual", "borel-solve",
                  "verify-suites")
# set-up is timed in fresh interpreters, this many times before the timed
# phase and this many after it, and the median kept: one cold import alone
# drifts by several per cent between runs, and over minutes with the machine
SETUP_BEFORE, SETUP_AFTER = 2, 3
SETUP_CALIB_PASSES = 3
# the timed phase moves to the next allowed CPU at the first operation
# boundary after this many seconds, so that a run does not depend on which
# CPU it landed on; the CPUs of a shared machine can run at different speeds
CPU_SWITCH_S = 0.5
# The speed of a shared machine moves with its other load: on the 2-core VM
# this was written on, a fixed loop ran 1.7 times slower at one time than a
# quarter of an hour earlier, with no steal time to show for it.  So the run
# times a fixed calibration loop on each CPU before it leaves it, and reports
# every time at the reference speed, at which that loop takes CALIB_REF_MS: a
# time is multiplied, a rate divided, by CALIB_REF_MS / (the loop's time).
# The loop's time is the mean over the CPUs of its median on each, since the
# CPUs can differ and the work spends equal slices on each; each set-up
# sample is scaled by the loop's time in its own interpreter.  The constant
# only sets the scale: it is about the loop's time on that machine when
# calm.  The times as measured are printed on the line before the result.
CALIB_REF_MS = 5.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few operations per round, one set-up sample")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def setup_probe(args) -> int:
    """Child side of the set-up timing: import, build the inputs, say so;
    then time the calibration loop (one warm-up pass and SETUP_CALIB_PASSES)
    and print its median, the speed at which this set-up ran."""
    workloads = _load_workloads()
    workloads.WORKLOADS[args.workload](args.seed, args.smoke).round(0)
    print("ready", flush=True)
    calibration_s()
    print(statistics.median(calibration_s() for _ in range(SETUP_CALIB_PASSES)))
    return 0


def measure_setup(args, samples: int) -> list[tuple[float, float]]:
    """(set-up time, calibration loop time) of `samples` fresh interpreters."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"set-up probe failed with exit status {proc.returncode}")
        times.append((elapsed, float(rest)))
    return times


def calibration_s() -> float:
    """Time one pass of a fixed loop of the kinds of arithmetic the package
    spends its time in, in about equal shares: mpmath at 24 digits on its
    pure-Python backend, Fractions, and complex floats with dict updates.
    The collector is off, so the size of the package's heap does not change
    the loop's cost."""
    import mpmath as mp
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            with mp.workdps(24):
                x = mp.mpf(1)
                for i in range(150):
                    x = x * mp.mpf(1.0001) + 1 / (x + i)
            for _ in range(3):
                f = Fraction(1)
                for i in range(1, 40):
                    f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
            acc, z = {}, complex(0.5, 0.25)
            for i in range(3000):
                z = z * 0.999 + 1.0 / (i + z)
                acc[i % 97] = acc.get(i % 97, 0.0) + abs(z)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_phase(wl, seconds: float, trace=None):
    """Whole rounds: min_rounds, then more while one more round of the mean
    length so far still ends within `seconds`.  Returns the results, the
    latencies, the phase's wall time less calibration, the loop's time in
    seconds and the peak RSS in KiB after the workload's rss_rounds."""
    results, latencies = [], []
    allowed = sorted(os.sched_getaffinity(0))
    calib = defaultdict(list)      # CPU -> the calibration loop's times on it
    slot = 0
    os.sched_setaffinity(0, {allowed[0]})
    last_switch = time.perf_counter()
    rss_kb = None
    r = 0
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if r >= wl.min_rounds and elapsed * (r + 1) / r > seconds:
            break
        for k, op in enumerate(wl.round(r)):
            since = time.perf_counter() - last_switch
            if since > CPU_SWITCH_S:
                # one pass per CPU_SWITCH_S of work, so that workloads whose
                # operations take seconds sample the speed as often as others
                cpu = allowed[slot % len(allowed)]
                for _ in range(min(8, int(since / CPU_SWITCH_S))):
                    calib[cpu].append(calibration_s())
                slot += 1
                os.sched_setaffinity(0, {allowed[slot % len(allowed)]})
                last_switch = time.perf_counter()
            t0 = time.perf_counter()
            try:
                if trace is None:
                    out = wl.run(op)
                else:
                    out = trace.run_op(f"{r}.{k}", "op", wl.run, op)
                err = None
            except Exception as exc:   # a failed operation is counted, not fatal
                out, err = None, repr(exc)
            latencies.append(time.perf_counter() - t0)
            results.append((op, out, err))
        r += 1
        if r == wl.rss_rounds:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phase_s = time.perf_counter() - t_start - sum(map(sum, calib.values()))
    if not calib:
        calib[allowed[slot % len(allowed)]].append(calibration_s())
    calib_s = statistics.fmean(statistics.median(v) for v in calib.values())
    os.sched_setaffinity(0, allowed)
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return results, latencies, phase_s, calib_s, rss_kb


def verdicts(wl, results) -> tuple[int, bool]:
    """(failed operations, correct): correct unless an operation outside the
    workload's known faults failed."""
    done = [(op, out) for op, out, err in results if err is None]
    checked = iter(wl.check(done))
    failed, correct = 0, True
    for op, _, err in results:
        good = err is None and next(checked)
        if not good:
            failed += 1
            correct = correct and wl.known_fault(op)
    return failed, correct


def import_metrics(workloads, tr) -> dict:
    status, _, err, _ = workloads.run_child(
        [sys.executable, "-X", "importtime", "-c", "import sp4whittaker"])
    if status != 0:
        raise SystemExit("importing sp4whittaker failed")
    return tr.import_times(err.decode().splitlines())


def run_one(args) -> int:
    setup_times = measure_setup(args, 1 if args.smoke else SETUP_BEFORE)
    workloads = _load_workloads()
    import tracer as tr
    trace_dir = workloads.OUT / f"trace-{args.workload}-{args.seed}"
    trace = None
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.iterdir():
            old.unlink()
        trace = tr.install(tr.Tracer())
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                            trace_dir if args.trace else None)
    results, latencies, phase_s, calib_s, own_kb = timed_phase(wl, args.seconds, trace)
    if trace is not None:
        trace.uninstall()
    if not args.smoke:
        setup_times += measure_setup(args, SETUP_AFTER)
    failed, correct = verdicts(wl, results)
    ops_per_s = len(results) / phase_s
    if trace is None:
        measured = {"setup_s": statistics.median(t for t, _ in setup_times),
                    "ops_per_s": ops_per_s, "op_p50_ms": statistics.median(latencies) * 1e3}
        speed = CALIB_REF_MS / (calib_s * 1e3)
        print("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items())
              + f"; calibration loop {calib_s * 1e3:.4g} ms, times scaled by {speed:.4g}")
        setup_s = statistics.median(t * CALIB_REF_MS / (c * 1e3) for t, c in setup_times)
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (ops_per_s / speed, "1/s"),
                   "op_p50_ms": (measured["op_p50_ms"] * speed, "ms"),
                   "peak_rss_mb": (wl.peak_kb(results, own_kb) / 1024.0, "MB")}
    else:
        summaries = [trace.summary()]
        summaries += [json.loads(p.read_text()) for p in sorted(trace_dir.glob("verify-*.json"))]
        merged = tr.merge(summaries)
        values = tr.layer_metrics(merged)
        values.update(import_metrics(workloads, tr))
        metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
        trace.write_spans(trace_dir / "spans.jsonl.gz")
        (trace_dir / "summary.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "traced_ops_per_s": ops_per_s,
             "per_layer": values, "trace": merged}, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {"us": "us", "ms": "ms", "s": "s", "calls": "count",
            "share": "ratio"}.get(suffix, "count")


def run_all(args) -> int:
    """Every workload in its own process, one summary line each."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit status {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        rows[name] = res
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: {shown}; attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {str(res['correct']).lower()}")
    print(json.dumps({"workloads": rows}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sp4whittaker" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
