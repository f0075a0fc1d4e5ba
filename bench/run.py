"""Benchmark of the menshov pipeline, end to end and per layer.

    python3 bench/run.py --workload {mset_limit,demo,kernel_sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each workload runs as a closed loop, one client with
iterations back to back, for about S seconds, and every iteration's output is
checked.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` untraced and traced iterations
alternate and the metrics are the per-layer ones of the traced iterations.
Reports, the run record and the spans of the last traced iteration go to
`.bench_out/<workload>/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import RED_REQUIRED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}

# Single-run timings listed in ROADMAP.md before this benchmark existed:
# workload -> (what the ROADMAP row timed, seconds, the measured value).
ROADMAP_BASELINES = {
    "mset_limit": [
        ("build_lambda Cantor-40, K=3, J=3, N_max=2000", 2.9,
         lambda m: m["fourier.build_lambda_s"]),
        ("proposition_scan on that set (1,993 n)", 2.6,
         lambda m: m["msets.proposition_scan_s"]),
        ("cantor_cdf, 2^20 points, 40 levels", 0.32,
         lambda m: m["measures.cdf_s"] * 2**20 / m["measures.cdf_points"]),
    ],
    "demo": [("theorem_demo Cantor on [0, 2 pi], f = x, eps = 0.05", 4.2,
              lambda m: m["assembly.theorem_demo_s"])],
    "kernel_sweep": [("criterion-6 kernel_sup sweep", 5.0,
                      lambda m: m["corrector.kernel_sup_s"])],
}


def import_menshov():
    """The menshov package of this checkout; exits if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import menshov
        import menshov.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import menshov from {src}: {exc}")
    if src not in Path(menshov.__file__).resolve().parents:
        raise SystemExit(f"menshov imported from {menshov.__file__}, "
                         f"not from {src}")
    return menshov


def setup_seconds(args) -> list[float]:
    """Wall time from process start to a workload ready to iterate, measured
    on fresh interpreters: import, seeded parameters, built inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with {proc.returncode}")
    return times


def iterate(menshov, workload, params, tracer=None):
    """One iteration: (wall s, cpu s, problems, collected output, layer
    metrics or None).  Only the program call is timed."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0, c0 = perf_counter(), process_time()
    try:
        raw = workload.run(menshov, params)
    finally:
        wall, cpu = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    res = workload.collect(raw)
    layers = layer_metrics(tracer, wall) if tracer is not None else None
    return wall, cpu, workload.check(params, res), res, layers


def machine_block() -> dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads(np)
    return info


def _blas_threads(np):
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _fmt_table(rows) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(r, widths))
                     for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    menshov = import_menshov()
    workload = WORKLOADS[args.workload](OUT / args.workload)
    workload.workdir.mkdir(parents=True, exist_ok=True)
    params = workload.params(args.seed)
    if args.setup_probe:
        workload.setup(menshov, params)
        print("ready", flush=True)
        return 0

    setups = setup_seconds(args)
    workload.setup(menshov, params)
    print(f"workload {workload.name}, seed {args.seed}: {json.dumps(params)}")

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    cpu_untraced = 0.0
    layer_runs, problems, red = [], [], {}
    attempted = failed = 0
    peak_rss = 0.0
    start = perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            wall, cpu, probs, res, layers = iterate(
                menshov, workload, params, tracer if traced else None)
        except Exception:
            traceback.print_exc()
            failed += 1
            problems.append(f"iteration {attempted} raised")
        else:
            walls[traced].append(wall)
            if not traced:
                cpu_untraced += cpu
            if probs:
                failed += 1
                problems.extend(f"iteration {attempted}: {p}" for p in probs)
            red = workload.red(res)
            if layers is not None:
                layers["cli.report_bytes"] = res.get("report_bytes", 0)
                layer_runs.append(layers)
        if attempted == 1:
            # One command-line run holds set-up and one iteration; later
            # iterations add only allocator fragmentation, which would tie
            # the peak to how many iterations fit in the run.
            peak_rss = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            if tracer is not None:
                continue  # pair the first untraced run with a traced one
        last = max(max(w[-1:], default=0.0) for w in walls.values())
        if perf_counter() - start + last > args.seconds:
            break

    for p in problems:
        print("check failed:", p)
    for key, value in red.items():
        print(f"standing red criterion {key} = {value:.4f} "
              f"(required <= {RED_REQUIRED[key]}; reported, not gated)")
    record = {"workload": workload.name, "seed": args.seed, "params": params,
              "setup_s": setups, "walls_untraced": walls[False],
              "walls_traced": walls[True], "problems": problems, "red": red}

    if tracer is None:
        solve = walls[False]
        metrics = {
            "solve_s": statistics.median(solve) if solve else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
            "ok_frac": (attempted - failed) / attempted,
        }
        print(f"solve_s median of {len(solve)} iterations; "
              f"setup_s median of {len(setups)} fresh processes")
        units = END_TO_END_UNITS
    else:
        metrics = traced_metrics(layer_runs, walls, cpu_untraced, red)
        units = PER_LAYER_UNITS
        record["machine"] = machine_block()
        record["absent"] = tracer.absent
        record["layers_per_iteration"] = layer_runs
        print("machine:", json.dumps(record["machine"]))
        print("absent spans (their metrics read 0):", tracer.absent or "none")
        print_layers(workload.name, metrics)
        write_spans(workload.workdir / "spans.jsonl", tracer.spans)

    (workload.workdir / f"run-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def traced_metrics(layer_runs, walls, cpu_untraced, red):
    """Median over traced iterations of each layer metric, plus harness
    diagnostics; counts must repeat exactly between iterations."""
    metrics = {}
    for key in layer_runs[0] if layer_runs else ():
        values = [run[key] for run in layer_runs]
        metrics[key] = statistics.median(values)
        if PER_LAYER_UNITS[key] == "count" and len(set(values)) > 1:
            print(f"warning: count {key} differs between iterations: {values}")
    untraced, traced = walls[False], walls[True]
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced)
                                   if traced and untraced else 0.0)
    metrics["cpu_per_wall"] = cpu_untraced / sum(untraced) if untraced else 0.0
    for key in RED_REQUIRED:
        metrics[key] = red.get(key, 0.0)
    return {k: metrics.get(k, 0.0) for k in PER_LAYER_UNITS}


def print_layers(name, metrics):
    rows = [("metric", "value")]
    rows += [(k, f"{v:.6g}") for k, v in metrics.items()]
    print(_fmt_table(rows))
    rows = [("ROADMAP row", "baseline s", "measured s")]
    rows += [(what, f"{secs:.2f}", f"{value(metrics):.2f}")
             for what, secs, value in ROADMAP_BASELINES[name]]
    print("per-layer times beside the ROADMAP single-run baselines "
          "(traced, median of the traced iterations):")
    print(_fmt_table(rows))


def write_spans(path: Path, spans):
    with open(path, "w") as fh:
        for name, start, end, parent, work, tag in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "work": work,
                                 "tag": tag}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
