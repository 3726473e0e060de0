"""Tests of the benchmark's own checks, and a smoke run of every workload.

    PYTHONPATH=src python3 -m pytest perfbench -q

A check that cannot fail measures nothing: each test here hands a check one
wrong output and expects exactly that operation to count as failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from sp4whittaker.radial import RadialFunction  # noqa: E402
from sp4whittaker.solutions import CoefficientFamily  # noqa: E402

END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}


def test_w_value_perturbed_by_1e_8_relative_fails():
    wl = W.WDomain(7, smoke=True)
    ops = [op for op in wl.round(0) if not wl.known_fault(op)]
    results = [(op, wl.run(op)) for op in ops]
    assert all(wl.check(results))
    for k in range(len(results)):
        bad = list(results)
        op, value = bad[k]
        bad[k] = (op, value * (1.0 + 1e-8))
        assert wl.check(bad) == [j != k for j in range(len(bad))]


def test_known_fault_points_fail_every_round():
    wl = W.WDomain(7, smoke=True)
    for r in (0, 31):
        ops = [op for op in wl.round(r) if op[0] == "climb-known-fault"]
        assert len(ops) == len(W.W_KNOWN_FAULT)
        assert not any(wl.check([(op, wl.run(op)) for op in ops]))


def test_known_crash_raises_every_round():
    wl = W.WDomain(7, smoke=True)
    for r in (0, 1):
        ops = [op for op in wl.round(r) if op[0] == "climb-known-crash"]
        assert len(ops) == 1 and wl.known_fault(ops[0])
        with pytest.raises(ZeroDivisionError):
            wl.run(ops[0])


def test_contiguous_w_value_perturbed_by_1e_8_relative_fails():
    wl = W.WContiguous(4, smoke=True)
    ops = wl.round(0)
    results = [(op, wl.run(op)) for op in ops]
    assert all(wl.check(results))
    for op, got in results:
        if op[0] == "oracle":
            assert not wl.judge(op, got * (1.0 + 3e-8), None)
            continue
        good = wl.neighbours(op)
        for k in range(len(good)):
            bad = list(good)
            bad[k] = (bad[k][0], bad[k][1] * (1.0 + 1e-8))
            assert not wl.judge(op, got, bad)
        assert not wl.judge(op, dict(got, status="FAIL"), good)


def _borel_result(lam=(4, -1)):
    return W.BorelSolve.run(lam)


def test_kernel_vector_with_one_coefficient_changed_fails():
    # a vector with a single nonzero coefficient only scales when it changes,
    # and stays in the kernel; every other coefficient change must be caught
    lam = (4, -1)
    basis, report = _borel_result(lam)
    assert W.BorelSolve.check([(lam, (basis, report))]) == [True]
    changed = 0
    for which, fam in enumerate(basis):
        terms = [(i, key) for i in range(fam.d + 1) for key, _ in fam.entry(i).terms]
        if len(terms) < 2:
            continue
        for i, (p, q, _, _) in terms:
            entries = list(fam.entries)
            entries[i] = entries[i] + RadialFunction.monomial(1, p, q)
            bad = list(basis)
            bad[which] = CoefficientFamily(fam.hc, fam.basis_tag, tuple(entries))
            assert W.BorelSolve.check([(lam, (bad, report))]) == [False]
            changed += 1
    assert changed > 0


def test_flipped_printed_family_verdict_fails():
    lam = (4, -1)
    basis, report = _borel_result(lam)
    for k in range(len(report["families"])):
        bad = json.loads(json.dumps(report))
        entry = bad["families"][k]
        entry["status"] = "MATCH" if entry["status"] == "MISMATCH" else "MISMATCH"
        assert W.BorelSolve.check([(lam, (basis, bad))]) == [False]


def test_siegel_family_with_one_entry_scaled_fails():
    wl = W.SiegelResidual(5, smoke=True)
    op = wl.round(0)[0]
    fam, out = wl.run(op)
    assert wl.check([(op, (fam, out))]) == [True]
    i = next(i for i in range(fam.d + 1) if not fam.entry(i).is_zero())
    entries = list(fam.entries)
    entries[i] = entries[i].scale(1.001)
    bad = CoefficientFamily(fam.hc, fam.basis_tag, tuple(entries))
    assert wl.check([(op, (bad, out))]) == [False]


def test_verify_json_with_one_byte_changed_fails():
    wl = W.VerifySuites(0, smoke=True)
    ops = [wl.round(0)[0], wl.round(1)[0]]
    results = [(op, wl.run(op)) for op in ops]
    assert wl.check(results) == [True, True]
    status, out, err, rss = results[1][1]
    for pos in (0, len(out) // 2, len(out) - 2):
        changed = bytearray(out)
        changed[pos] ^= 0x01
        bad = [results[0], (ops[1], (status, bytes(changed), err, rss))]
        assert wl.check(bad) == [True, False]


def test_verify_borel_mismatches_agree_with_sympy():
    wl = W.VerifySuites(0)
    status, out, _, _ = wl.run(("borel", 0, 0))
    doc = json.loads(out)
    assert status == 0 and W.verify_mismatches_agree(doc)
    doc["expected_mismatches"] = doc["expected_mismatches"][1:]
    assert not W.verify_mismatches_agree(doc)


def _run(workload, *extra, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--smoke", *extra],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", ["w-domain", "w-contiguous", "siegel-residual",
                                      "borel-solve", "verify-suites"])
def test_smoke_run(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    if workload == "w-domain":
        per_round = len(W.WDomain(3, smoke=True).round(0))
        assert res["failed"] * per_round == (len(W.W_KNOWN_FAULT) + 1) * res["attempted"]
    else:
        assert res["failed"] == 0


@pytest.mark.parametrize("workload", ["w-contiguous", "siegel-residual", "borel-solve"])
def test_traced_counts_repeat(workload):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    counts = []
    for _ in range(2):
        proc = _run(workload, "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == names
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("w-domain", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
