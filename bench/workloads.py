"""The three benchmark workloads: seeded inputs, one iteration, output checks.

Each workload turns a seed into parameters (`params`), validates and builds
them once (`setup`), runs one closed-loop iteration (`run`) that rebuilds its
inputs from the parameters exactly as a command-line user pays for them,
parses what the program produced (`collect`) and checks the meaning of that
output (`check`, which returns a list of problems; empty means correct).

Seeds vary only inputs that leave every work counter unchanged, so counts
repeat exactly across seeds and the default seed 0 reproduces the
acceptance-criterion configuration:

* mset_limit varies sigma, the offset of the M-set intervals: the index set
  and the number of intervals and CDF points do not depend on it.
* demo varies the total mass of the Cantor measure by a power of two, which
  scales every mass and tolerance of the run exactly in floating point, so
  every comparison the construction makes comes out the same.
* kernel_sweep varies the sign and size of gamma; psi scales with gamma, so
  the normalized bound B-hat is unchanged up to rounding.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


def cantor_abs_transform(freqs, levels: int = 40) -> np.ndarray:
    """|nu_hat(f)| of the level-`levels` Cantor measure on [0, 1].

    Truncated infinite-product formula prod_k cos(2 pi f / 3^k), kept here
    independent of the library's quadrature path.
    """
    f = np.asarray(freqs, dtype=float)
    ratios = 3.0 ** -np.arange(1, levels + 1)
    return np.abs(np.prod(np.cos(TWO_PI * np.outer(f, ratios)), axis=1))


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _read_csv(path: Path):
    """Rows of a CLI CSV report as dicts keyed by the header line."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _report_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


class Workload:
    name = ""
    why = ""
    subcommand = ""  # the `menshov` subcommand a CLI workload runs

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def run(self, menshov, params: dict):
        """Write the config file and run the CLI on it, as a user does."""
        cfg_path = self.workdir / "config.json"
        cfg_path.write_text(json.dumps(params))
        out = _fresh_dir(self.workdir / "out")
        return menshov.cli.main([self.subcommand, "--config", str(cfg_path),
                                 "--out", str(out)])


class MSetLimit(Workload):
    """`menshov mset-limit` on the criterion-2 configuration."""

    name = "mset_limit"
    subcommand = "mset-limit"
    why = ("criterion-2 scan: the spectrum pass and 1,993 M-set masses "
           "dominate, so fourier, measures and msets carry the run")

    def params(self, seed: int) -> dict:
        sigma = 0.2 if seed == 0 else round(
            random.Random(seed).uniform(0.05, 0.65), 6)
        return {"measure": {"kind": "cantor", "levels": 40, "total": 1.0,
                            "domain": [0.0, 1.0]},
                "sigma": sigma, "tau": 0.3, "J": 3, "K": 3, "N_max": 2000}

    def setup(self, menshov, params: dict):
        spec = menshov.MeasureSpec.from_dict(params["measure"])
        mu = menshov.build_measure(spec)
        menshov.MSetSpec(mu.domain, 1, params["sigma"], params["tau"])
        self.levels = spec.levels
        self.mu_total = float(mu.interval_mass(*mu.domain))

    def collect(self, code) -> dict:
        out = self.workdir / "out"
        rows = _read_csv(out / "mset_limit.csv")
        summary = json.loads((out / "mset_limit_summary.json").read_text())
        return {"exit": code, "summary": summary,
                "report_bytes": _report_bytes(out),
                "n": np.array([int(r["n"]) for r in rows], dtype=np.int64),
                "mass": np.array([float(r["mass"]) for r in rows]),
                "error": np.array([float(r["error"]) for r in rows])}

    def check(self, params: dict, res: dict) -> list[str]:
        if res["exit"] != 0:
            return [f"exit code {res['exit']}"]
        problems = []
        n, mass, error = res["n"], res["mass"], res["error"]
        summary = res["summary"]
        J, K, N_max = params["J"], params["K"], params["N_max"]
        if n.size == 0 or summary["members"] != n.size:
            problems.append(f"{n.size} rows for {summary['members']} members")
        if summary["density"] < 0.5:
            problems.append(f"index-set density {summary['density']} below 0.5")
        freqs = np.outer(np.arange(1, K + 1), n).ravel()
        worst = float(cantor_abs_transform(freqs, self.levels).max(initial=0))
        if worst > 1.0 / J:
            problems.append(f"non-member reported: |nu_hat(kn)| = {worst:.4f}"
                            f" > 1/J = {1.0 / J:.4f}")
        if np.any(mass < 0.0) or np.any(mass > self.mu_total):
            problems.append(f"mass outside [0, mu(I) = {self.mu_total}]")
        target = params["tau"] * self.mu_total
        if not math.isclose(summary["target"], target, rel_tol=1e-12):
            problems.append(f"target {summary['target']} != tau mu(I) {target}")
        if not np.allclose(error, np.abs(mass - target), rtol=0, atol=1e-12):
            problems.append("error column is not |mass - target|")
        tail = error[n >= 0.75 * N_max]
        if tail.size and not math.isclose(summary["tail_sup"], tail.max(),
                                          rel_tol=1e-12):
            problems.append(f"tail_sup {summary['tail_sup']} != {tail.max()}")
        return problems

    def red(self, res: dict) -> dict:
        return {"criterion2.tail_sup": float(res["summary"]["tail_sup"])}


class Demo(Workload):
    """`menshov demo` on the criterion-8 configuration."""

    name = "demo"
    subcommand = "demo"
    why = ("criterion-8 correction round: 32 correctors, 332k scalar g calls "
           "and exact running-integral checks; small spectral and mass calls")

    def params(self, seed: int) -> dict:
        total = 1.0 if seed == 0 else 2.0 ** random.Random(seed).randint(-4, 4)
        return {"measure": {"kind": "cantor", "levels": 40, "total": total,
                            "domain": [0.0, TWO_PI]},
                "f": "identity", "eps": 0.05, "uniform_gap": 0.5}

    def setup(self, menshov, params: dict):
        mu = menshov.build_measure(
            menshov.MeasureSpec.from_dict(params["measure"]))
        if mu.atom_positions.size:
            raise ValueError("demo workload needs a non-atomic measure")
        self.mu_total = float(mu.interval_mass(*mu.domain))

    def collect(self, code) -> dict:
        out = self.workdir / "out"
        return {"exit": code, "report_bytes": _report_bytes(out),
                "report": json.loads((out / "demo_report.json").read_text())}

    def check(self, params: dict, res: dict) -> list[str]:
        if res["exit"] != 0:
            return [f"exit code {res['exit']}"]
        problems = []
        rep = res["report"]
        claim = rep["claim"]
        eps = params["eps"] * self.mu_total
        if claim["certified"] is not True:
            problems.append("claim.certified is not true")
        if not math.isclose(rep["eps"], eps, rel_tol=1e-12):
            problems.append(f"eps {rep['eps']} != {eps}")
        if not rep["exceptional_mass"] < eps:
            problems.append(f"exceptional mass {rep['exceptional_mass']}"
                            f" >= eps {eps}")
        cell_sum = math.fsum(c["mu_E_k"] for c in claim["cells"])
        if not math.isclose(cell_sum, claim["mu_E"], rel_tol=0,
                            abs_tol=1e-12 * self.mu_total):
            problems.append(f"cells sum to {cell_sum}, mu_E is {claim['mu_E']}")
        return problems

    def red(self, res: dict) -> dict:
        return {}


class KernelSweep(Workload):
    """The criterion-6 sweep of `corrector.kernel_sup`."""

    name = "kernel_sweep"
    why = ("criterion-6 sweep: only kernel quadrature and array-valued psi "
           "evaluation run; no measure is involved, bypassing measure changes")

    SWEEP = [(nu, r) for nu in (16, 32, 64) for r in (1, 2)]
    J_MAX, X_GRID = 64, 256
    # B-hat of each sweep point at the seed commit.  Quadrature changes such
    # as reusing one j_max rule for every j move these by about 1e-10
    # relative; a real defect moves them by far more than B_HAT_RTOL.
    B_HAT = [1.401491061395148, 0.6875421232337089, 0.34527500468042194,
             0.2547146052475473, 0.12817649852971427, 0.024838073828338594]
    B_HAT_RTOL = 1e-6

    def params(self, seed: int) -> dict:
        if seed == 0:
            gamma = 1.0
        else:
            rng = random.Random(seed)
            gamma = rng.choice((-1.0, 1.0)) * round(rng.uniform(0.25, 4.0), 6)
        return {"gamma": gamma}

    def _params_list(self, menshov, gamma: float):
        out = []
        for nu, r in self.SWEEP:
            eps = 16.0 * abs(gamma) * TWO_PI / (r * nu)  # admissible by 4x
            out.append(menshov.CorrectorParams(0.0, TWO_PI, gamma, eps, nu, r))
        return out

    def setup(self, menshov, params: dict):
        self._params_list(menshov, params["gamma"])

    def run(self, menshov, params: dict):
        corrector = menshov.corrector
        gamma = params["gamma"]
        results = []
        for p in self._params_list(menshov, gamma):
            psi = corrector.build_psi(corrector.layout(p), gamma, p.nu)
            results.append(corrector.kernel_sup(psi, j_max=self.J_MAX,
                                                x_grid=self.X_GRID,
                                                nu=p.nu, gamma=gamma))
        return results

    def collect(self, results) -> dict:
        return {"sup": [float(s) for s, _ in results],
                "b_hat": [float(b) for _, b in results]}

    def check(self, params: dict, res: dict) -> list[str]:
        problems = []
        gamma = params["gamma"]
        for (nu, r), sup, b, want in zip(self.SWEEP, res["sup"], res["b_hat"],
                                         self.B_HAT):
            if not math.isclose(b, want, rel_tol=self.B_HAT_RTOL):
                problems.append(f"B-hat at nu={nu}, r={r} is {b}, "
                                f"recorded {want}")
            if not math.isclose(sup, b * nu * abs(gamma), rel_tol=1e-12):
                problems.append(f"sup {sup} != B-hat * nu * |gamma|")
        if len(res["b_hat"]) != len(self.SWEEP):
            problems.append(f"{len(res['b_hat'])} sweep points, "
                            f"expected {len(self.SWEEP)}")
        return problems

    def red(self, res: dict) -> dict:
        b = res["b_hat"]
        return {"criterion6.bhat_ratio": max(b) / min(b)}


WORKLOADS = {w.name: w for w in (MSetLimit, Demo, KernelSweep)}

# Standing red acceptance criteria: reported every run, never gated on.
RED_REQUIRED = {"criterion2.tail_sup": 0.02, "criterion6.bhat_ratio": 4.0}
