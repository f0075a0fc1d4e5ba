"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that two smoke runs of each workload (seeds 0 and 1) report identical
work counters, that the result line carries exactly the metrics named in
BENCHMARK.json, that every output check flags a deliberately corrupted
result, and that the tracer puts every wrapped name back.  Takes about a
minute and a half on two cores.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, cantor_abs_transform  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    """Result line of one run of the benchmark command, one iteration long."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    return result["metrics"]


def test_counters_repeat_across_runs_and_seeds():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(PER_LAYER_UNITS)
    for name in WORKLOADS:
        a, b = bench(name, 0, 1), bench(name, 1, 1)
        assert list(a) == names
        counts = [k for k in names if PER_LAYER_UNITS[k] == "count"]
        differ = {k: (a[k]["value"], b[k]["value"]) for k in counts
                  if a[k]["value"] != b[k]["value"]}
        assert not differ, f"{name}: counters differ: {differ}"
        print(f"ok  {name}: {len(counts)} counters repeat across seeds 0 and 1")


def test_end_to_end_metrics():
    names = [m["name"] for m in SPEC["end_to_end"]]
    metrics = bench("demo", 2, 0)
    assert list(metrics) == names
    assert all(metrics[k]["value"] > 0 for k in names)
    print("ok  end-to-end metrics", names)


def one_result(name, seed=0):
    menshov = run.import_menshov()
    workload = WORKLOADS[name](run.OUT / f"selftest-{name}")
    workload.workdir.mkdir(parents=True, exist_ok=True)
    params = workload.params(seed)
    workload.setup(menshov, params)
    _, _, problems, res, _ = run.iterate(menshov, workload, params)
    assert problems == [], problems
    return workload, params, res


def expect_flagged(workload, params, res, corrupt, what):
    bad = copy.deepcopy(res)
    corrupt(bad)
    problems = workload.check(params, bad)
    assert problems, f"{workload.name}: check missed {what}"
    print(f"ok  {workload.name}: flags {what}: {problems[0]}")


def test_checks_flag_corrupted_results():
    w, p, res = one_result("mset_limit")
    members = set(res["n"].tolist())
    outsiders = [n for n in range(1, p["N_max"] + 1) if n not in members
                 and cantor_abs_transform(np.arange(1, p["K"] + 1) * n).max()
                 > 1.0 / p["J"]]
    assert outsiders, "no non-member to inject"

    def add_non_member(r, n=outsiders[0]):
        target = r["summary"]["target"]
        r["n"] = np.append(r["n"], n)
        r["mass"] = np.append(r["mass"], target)
        r["error"] = np.append(r["error"], 0.0)
        r["summary"]["members"] += 1

    def mass_above_total(r):
        r["mass"][0] = 1.5 * w.mu_total
        r["error"][0] = abs(r["mass"][0] - r["summary"]["target"])

    expect_flagged(w, p, res, add_non_member, "a non-member in the index set")
    expect_flagged(w, p, res, mass_above_total, "a mass above mu(I)")
    expect_flagged(w, p, res, lambda r: r.update(exit=4), "a nonzero exit")

    w, p, res = one_result("demo")

    def flip_certified(r):
        r["report"]["claim"]["certified"] = False

    def shift_cell(r):
        r["report"]["claim"]["cells"][3]["mu_E_k"] *= 1.001

    def exceptional(r):
        r["report"]["exceptional_mass"] = 1.01 * r["report"]["eps"]

    expect_flagged(w, p, res, flip_certified, "a flipped certified flag")
    expect_flagged(w, p, res, shift_cell, "cells not summing to mu_E")
    expect_flagged(w, p, res, exceptional, "exceptional mass above eps")
    expect_flagged(w, p, res, lambda r: r.update(exit=4), "a nonzero exit")

    w, p, res = one_result("kernel_sweep", seed=3)

    def nudge(r):
        r["b_hat"][2] *= 1.0 + 1e-4
        r["sup"][2] *= 1.0 + 1e-4

    expect_flagged(w, p, res, nudge, "a B-hat off its record by 1e-4")
    expect_flagged(w, p, res, lambda r: r["b_hat"].pop(),
                   "a missing sweep point")


def test_tracer_restores_originals():
    menshov = run.import_menshov()
    before = (menshov.assembly.mset_mass, menshov.cli.main,
              vars(menshov.measures.Measure)["cont"],
              vars(menshov.piecewise.PiecewiseLinearFn)["__call__"])
    tracer = Tracer()
    tracer.install()
    try:
        assert menshov.assembly.mset_mass is not before[0]
    finally:
        tracer.uninstall()
    after = (menshov.assembly.mset_mass, menshov.cli.main,
             vars(menshov.measures.Measure)["cont"],
             vars(menshov.piecewise.PiecewiseLinearFn)["__call__"])
    assert after == before and tracer.absent == []
    print("ok  tracer restores every wrapped name")


def main():
    test_tracer_restores_originals()
    test_checks_flag_corrupted_results()
    test_end_to_end_metrics()
    test_counters_repeat_across_runs_and_seeds()
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
