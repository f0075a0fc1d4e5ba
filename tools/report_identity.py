"""Byte-identity check of the CLI reports of two source trees.

    python tools/report_identity.py ROOT_A ROOT_B

Runs each config of CONFIGS through `python -m menshov.cli` in a fresh
process per root, with PYTHONPATH=ROOT/src, WORKERS processes at a time.
It compares every output file, stdout, stderr and exit code, prints one line
per config and exits 1 on any difference (2 on bad arguments).  The root
path is replaced by ROOT in stdout and stderr before the comparison, so a
traceback or warning differs only where the program differs.  Passing one
tree as both roots checks that reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TWO_PI = 6.283185307179586
CANTOR = {"kind": "cantor", "levels": 40, "total": 1.0,
          "domain": [0.0, TWO_PI]}
LEBESGUE = {"kind": "lebesgue", "domain": [0.0, TWO_PI]}
MIXTURE = {"kind": "mixture", "components": [
    {"weight": 0.6, "spec": CANTOR}, {"weight": 0.4, "spec": LEBESGUE}]}
JUMP_TABLE = {"kind": "cdf_table", "table": [
    [0, 0], [0, 0.2], [0.5, 0.5], [0.5, 0.7], [1, 0.9], [1, 1]]}


def cantor_atoms(width: float) -> dict:
    """0.8 Cantor-40 + 0.2 on three atoms, over [0, width]."""
    dom = [0.0, width]
    return {"kind": "mixture", "components": [
        {"weight": 0.8, "spec": {"kind": "cantor", "levels": 40,
                                 "domain": dom}},
        {"weight": 0.2, "spec": {"kind": "atomic", "domain": dom, "atoms": [
            [0.15 * width, 0.3], [0.4 * width, 0.3], [0.8 * width, 0.4]]}}]}


WORKERS = 4  # CLI processes at a time; the largest run peaks near 200 MB
RUN_TIMEOUT = 300  # seconds; a run past it is killed and the check fails

# name: (subcommand, config, extra flags)
CONFIGS = {
    "demo-criterion-8": ("demo", {"measure": CANTOR,
                                  "partial_sums": [8, 64, 256, 4096]},
                         ["--plot"]),
    "demo-zero": ("demo", {"measure": CANTOR, "f": "zero"}, []),
    "demo-sin-mixture": ("demo", {"measure": MIXTURE, "f": "sin",
                                  "uniform_gap": 0.2}, []),
    "demo-steps-lebesgue": ("demo", {"measure": LEBESGUE,
                                     "f": [1.0, -0.5, 2.0, 1.0]}, []),
    "demo-thirds": ("demo", {"measure": CANTOR, "f": [1.0, -0.5, 2.0]}, []),
    "demo-cantor-atoms": ("demo", {"measure": cantor_atoms(TWO_PI)}, []),
    "claim-16": ("claim", {"measure": CANTOR, "nu": 16,
                           "phi": [1.0, -1.0]}, []),
    "claim-16-half": ("claim", {"measure": CANTOR, "nu": 16,
                                "phi": [1.0, -0.5]}, []),
    "claim-caps-2": ("claim", {"measure": CANTOR, "nu": 16,
                               "phi": [1.0, -1.0], "kappa_cap": 2,
                               "r_cap": 2}, []),
    "claim-mixture-40": ("claim", {"measure": MIXTURE, "nu": 40,
                                   "phi": [1.0, -1.0, 0.5, 2.0]}, []),
    "claim-lebesgue-4": ("claim", {"measure": LEBESGUE, "nu": 16,
                                   "phi": [1.0, -0.5, 2.0, 0.25]}, []),
    "claim-400": ("claim", {"measure": CANTOR, "nu": 400, "phi": [1.0] * 4,
                            "eps_seq": [10.0] * 100}, []),
    "corrector-kernel": ("corrector", {"kernel": True}, []),
    # 4,539 breakpoints: the transform runs on slices of its frequencies
    "corrector-kernel-wide": ("corrector", {"kernel": True, "d": 50.0}, []),
    # gamma = 0: choose_r's general formula gives r = 1, psi is all zeros
    "corrector-gamma-zero": ("corrector", {"gamma": 0.0, "kernel": True}, []),
    # q = 3,072 and r = 3: 3,060 removed intervals, one at almost every node
    "corrector-nu-1024": ("corrector", {"nu": 1024, "eps": 0.01,
                                        "kernel": True}, []),
    "mset-limit-criterion-2": ("mset-limit", {
        "measure": {"kind": "cantor", "levels": 40, "domain": [0.0, 1.0]},
        "sigma": 0.2, "tau": 0.3, "J": 3, "K": 3, "N_max": 2000}, []),
    # J = K = 5 on the criterion-2 measure: 1,908 members
    "mset-limit-J5K5": ("mset-limit", {
        "measure": {"kind": "cantor", "levels": 40, "domain": [0.0, 1.0]},
        "sigma": 0.2, "tau": 0.3, "J": 5, "K": 5, "N_max": 2000}, []),
    # a ceiling below the level that decides criterion 2: every n left
    # there gets the ceiling test, so the members depend on its grid
    "mset-limit-ceiling-16": ("mset-limit", {
        "measure": {"kind": "cantor", "levels": 40, "domain": [0.0, 1.0]},
        "sigma": 0.2, "tau": 0.3, "J": 3, "K": 3, "N_max": 2000,
        "refinement": 16}, []),
    # the atoms print a warning: mu(A_n) need not tend to tau mu(I)
    "mset-limit-cantor-atoms": ("mset-limit", {
        "measure": cantor_atoms(1.0), "sigma": 0.2, "tau": 0.3, "J": 3,
        "K": 3, "N_max": 2000}, []),
    # I holds 6e-9 of the mass, the atom at 0.1 almost all the rest
    "mset-limit-atoms-left-of-I": ("mset-limit", {
        "measure": {"kind": "mixture", "components": [
            {"weight": 1e-7, "spec": {"kind": "lebesgue"}},
            {"weight": 1.0, "spec": {"kind": "atomic",
                                     "atoms": [[0.1, 1.0], [0.5, 1e-12]]}}]},
        "I": [0.4, 0.6], "sigma": 0.2, "tau": 0.3, "N_max": 200}, []),
    "mset-limit-mixture-sub-interval": ("mset-limit", {
        "measure": MIXTURE, "I": [1.0, 5.0], "sigma": 0.2, "tau": 0.3,
        "J": 3, "K": 3, "N_max": 3000}, []),
    # sigma + tau = 1: for 107 of the n <= 1500 the last end rounds past 2 pi
    "mset-limit-full-blocks": ("mset-limit", {
        "measure": CANTOR, "sigma": 0.5, "tau": 0.5, "J": 3, "K": 3,
        "N_max": 1500}, []),
    "wiener-scan-criterion-9": ("wiener-scan", {"measure": CANTOR, "k": 1,
                                                "N": 200}, ["--plot"]),
    # its spectrum grid is one CDF call of 2^20 + 1 points
    "wiener-scan-2048": ("wiener-scan", {"measure": CANTOR, "k": 1,
                                         "N": 2048}, []),
    # atoms at both ends of the domain and at 0.5
    "wiener-scan-jump-table": ("wiener-scan", {"measure": JUMP_TABLE, "k": 1,
                                               "N": 200}, []),
    # 2,000 atoms: the atom sum runs on slices of its 1,001 frequencies
    "wiener-scan-2000-atoms": ("wiener-scan", {"measure": {
        "kind": "mixture", "components": [
            {"weight": 0.5, "spec": {"kind": "lebesgue"}},
            {"weight": 1.25e-4, "spec": {"kind": "atomic", "atoms": [
                [(i + 0.5) / 2000, 1 + i % 7] for i in range(2000)]}}]},
        "k": 1, "N": 1000}, []),
    # no continuous part: every error is the rounding of the atom sum
    "wiener-scan-atomic": ("wiener-scan", {"measure": {
        "kind": "atomic", "domain": [0.0, TWO_PI],
        "atoms": [[1.0, 0.3], [2.5, 0.5], [TWO_PI, 0.2]]}, "k": 3,
        "N": 200}, []),
}


def run(root: Path, side: str, name: str, work: Path) -> dict:
    """Exit code, stdout, stderr and every output file of config `name` on
    the tree at `root`; its config is work/name.json, its output work/side."""
    sub, _, flags = CONFIGS[name]
    out = work / side / name
    proc = subprocess.run(
        [sys.executable, "-m", "menshov.cli", sub,
         "--config", str(work / f"{name}.json"), "--out", str(out), *flags],
        cwd=work, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, timeout=RUN_TIMEOUT)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    root_b = str(root).encode()
    return {"exit code": proc.returncode,
            "stdout": proc.stdout.replace(root_b, b"ROOT"),
            "stderr": proc.stderr.replace(root_b, b"ROOT"),
            "files": files}


def differences(a: dict, b: dict) -> list[str]:
    """What differs between two runs: stream names and output file names."""
    diffs = [key for key in ("exit code", "stdout", "stderr")
             if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(name) != b["files"].get(name):
            diffs.append(name)
    return diffs


def compare(root_a: Path, root_b: Path) -> dict[str, list[str]]:
    """The differences of every config, WORKERS runs at a time."""
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(WORKERS) as pool:
        work = Path(tmp)
        for name, (_, cfg, _) in CONFIGS.items():
            (work / f"{name}.json").write_text(json.dumps(cfg))
        runs = {(side, name): pool.submit(run, root, side, name, work)
                for name in CONFIGS
                for side, root in (("a", root_a), ("b", root_b))}
        return {name: differences(runs["a", name].result(),
                                  runs["b", name].result())
                for name in CONFIGS}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a, "src", "menshov").is_dir()
                                 for a in args):
        print("usage: report_identity.py ROOT_A ROOT_B (each holding "
              "src/menshov)", file=sys.stderr)
        return 2
    diffs = compare(*(Path(a).resolve() for a in args))
    for name, names in diffs.items():
        print(f"DIFF {name}: {', '.join(names)}" if names else f"same {name}")
    return 1 if any(diffs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
