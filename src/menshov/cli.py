"""Command-line driver: JSON-configured runs emitting CSV/JSON/SVG reports.

Subcommands: wiener-scan, mset-limit, corrector, claim, demo.
Exit codes: 0 ok, 2 config error, 3 precondition violation,
4 certification failure, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import assembly, corrector, fourier, msets
from .errors import QuadratureError
from .measures import MeasureSpec, _real, build_measure, normalize
from .piecewise import StepFunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_UNCERTIFIED = 4
EXIT_NUMERIC = 5


class _ConfigError(Exception):
    """A config value naming something that cannot be read."""


def _write_csv(path: Path, header, rows, config: dict):
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    pattern = ",".join(["%.17g"] * len(header))
    lines.extend(pattern % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, config: dict):
    doc = {"config": config}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_svg(path: Path, xs, ys, title: str):
    """Minimal deterministic SVG line plot of two 1-d arrays."""
    w, h, pad = 640.0, 400.0, 40.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = pad + (xs - x0) / (x1 - x0) * (w - 2 * pad)
    py = h - pad - (ys - y0) / (y1 - y0) * (h - 2 * pad)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace">{title}</text>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" '
        f'stroke-width="1"/>\n</svg>\n'
    )
    path.write_text(svg)


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    return cfg


def _int(cfg: dict, key: str, default: int) -> int:
    """cfg[key], an integral JSON number: 16 or 16.0, not 16.9, true or "16"."""
    x = cfg.get(key, default)
    if not (type(x) is int or type(x) is float and x.is_integer()):
        raise ValueError(f"{key} must be an integer, got {x!r}")
    return int(x)


def _float(cfg: dict, key: str, default: float | None = None) -> float:
    """cfg[key], a JSON number a double can hold: 0.5 or 2, not true or
    "0.5"; required when there is no default."""
    x = cfg[key] if default is None else cfg.get(key, default)
    if not _real(x):
        raise ValueError(f"{key} must be a number, got {x!r}")
    return float(x)


def _floats(cfg: dict, key: str, default, size: int | None = None):
    """cfg[key], a JSON list of numbers a double can hold, with `size`
    entries when given: [0, 1], not 5, ["0", 1] or [false, 1]."""
    x = cfg.get(key, default)
    if x is default:  # absent, or null where the default is None
        return default
    if not (isinstance(x, list) and all(map(_real, x))
            and size in (None, len(x))):
        count = f"{size} " if size else ""
        raise ValueError(f"{key} must be a list of {count}numbers, got {x!r}")
    return [float(e) for e in x]


def _measure_from_config(cfg: dict):
    src = cfg.get("measure")
    if src is None:
        raise KeyError("config needs a 'measure' entry (path or inline spec)")
    if isinstance(src, str):
        try:
            with open(src) as fh:
                src = json.load(fh)
        except OSError as exc:
            raise _ConfigError(f"cannot read measure file {src!r}: {exc.strerror}")
    elif not isinstance(src, dict):  # open() would take an int as a descriptor
        raise _ConfigError("'measure' must be a file path or an inline spec, "
                           f"not {type(src).__name__}")
    return build_measure(MeasureSpec.from_dict(src))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_wiener_scan(cfg, out: Path, plot: bool):
    mu = _measure_from_config(cfg)
    nrm = normalize(mu, mu.domain)
    k, N = _int(cfg, "k", 1), _int(cfg, "N", 1000)
    refinement = _int(cfg, "refinement", fourier.DEFAULT_REFINEMENT)
    absv, errs, running = fourier.wiener_scan(nrm, k, N, refinement)
    rows = [(n, k, absv[n], errs[n], running[n]) for n in range(N + 1)]
    _write_csv(out / "wiener_scan.csv",
               ["n", "k", "abs_coeff", "error", "running_average"], rows, cfg)
    if plot:
        _write_svg(out / "wiener_scan.svg", np.arange(N + 1), running,
                   "running Cesaro average of |coeff|^2")
    return EXIT_OK


def _cmd_mset_limit(cfg, out: Path, plot: bool):
    mu = _measure_from_config(cfg)
    interval = tuple(_floats(cfg, "I", mu.domain, size=2))
    sigma, tau = _float(cfg, "sigma"), _float(cfg, "tau")
    msets.MSetSpec(interval, 1, sigma, tau)  # refuse bad sigma, tau up front
    J, K = _int(cfg, "J", 3), _int(cfg, "K", 3)
    m, N_max = _int(cfg, "m", 1), _int(cfg, "N_max", 1000)
    refinement = _int(cfg, "refinement", fourier.DEFAULT_REFINEMENT)
    nrm = normalize(mu, interval)
    lam = fourier.build_lambda(nrm, K=K, J=J, N_max=N_max, m=m,
                               refinement=refinement)
    for warning in lam.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    scan = msets.proposition_scan(mu, interval, sigma, tau, lam)
    _write_csv(out / "mset_limit.csv", ["n", "mass", "error"],
               scan.rows(), cfg)
    _write_json(out / "mset_limit_summary.json", {
        "target": scan.target,
        "tail_sup": scan.tail_sup,
        "members": int(scan.ns.size),
        "density": lam.density,
    }, cfg)
    if plot:
        _write_svg(out / "mset_limit.svg", scan.ns, scan.errors,
                   "|mass(A_n) - tau mu(I)| vs n")
    return EXIT_OK


def _cmd_corrector(cfg, out: Path, plot: bool):
    c, d = _float(cfg, "c", 0.0), _float(cfg, "d", 2.0 * np.pi)
    gamma, eps = _float(cfg, "gamma", 1.0), _float(cfg, "eps", 0.1)
    nu = _int(cfg, "nu", 16)
    r = _int(cfg, "r", 0) or corrector.choose_r(c, d, gamma, eps, nu)
    params = corrector.CorrectorParams(c, d, gamma, eps, nu, r)
    lay = corrector.layout(params)
    psi = corrector.build_psi(lay, gamma, nu)
    checks = corrector.check_corrector(lay, psi, gamma, eps)
    checks["running_integral_sup"] = corrector.running_integral_sup(psi)
    checks["lebesgue_E_measure"] = lay.lebesgue_e()
    kernel = cfg.get("kernel", False)
    if not isinstance(kernel, bool):  # "no" would be truthy
        raise ValueError(f"kernel must be true or false, got {kernel!r}")
    if kernel:
        j_max = _int(cfg, "j_max", 16)
        x_grid = _int(cfg, "x_grid", 64)
        sup, b_hat = corrector.kernel_sup(psi, j_max, x_grid, nu, gamma)
        checks["kernel_sup"] = sup
        checks["kernel_b_hat"] = b_hat
    _write_json(out / "corrector_layout.json", {
        "q": lay.q, "delta": lay.delta, "a_prime": lay.a_prime,
        "b_prime": lay.b_prime, "r": r, "nu": nu,
        "removed": lay.removed.tolist(), "e_intervals": lay.e_intervals.tolist(),
    }, cfg)
    _write_csv(out / "corrector_psi.csv", ["breakpoint", "value"],
               list(zip(psi.xs, psi.ys)), cfg)
    _write_json(out / "corrector_checks.json", checks, cfg)
    if plot:
        _write_svg(out / "corrector_psi.svg", psi.xs, psi.ys, "corrector")
    return EXIT_OK


def _cmd_claim(cfg, out: Path, plot: bool):
    mu = _measure_from_config(cfg)
    nu = _int(cfg, "nu", 16)
    phi = StepFunction(mu.domain, _floats(cfg, "phi", [1.0, -1.0]))
    result = assembly.claim_run(
        phi, mu, nu, _floats(cfg, "eps_seq", None),
        kappa_cap=_int(cfg, "kappa_cap", assembly.SEARCH_CAP),
        r_cap=_int(cfg, "r_cap", assembly.SEARCH_CAP),
        refinement=_int(cfg, "refinement", fourier.DEFAULT_REFINEMENT))
    _write_json(out / "claim_result.json", result.to_json_dict(), cfg)
    _write_csv(out / "claim_e_intervals.csv", ["left", "right"],
               result.e_intervals.tolist(), cfg)
    return EXIT_OK if result.certified else EXIT_UNCERTIFIED


_DEMO_FUNCTIONS = {
    "identity": lambda x: x,
    "zero": lambda x: 0.0,
    "sin": np.sin,
}


def _cmd_demo(cfg, out: Path, plot: bool):
    mu = _measure_from_config(cfg)
    fname = cfg.get("f", "identity")
    if isinstance(fname, list):
        f = StepFunction(mu.domain, _floats(cfg, "f", None))
    elif isinstance(fname, str) and fname in _DEMO_FUNCTIONS:
        f = _DEMO_FUNCTIONS[fname]
    else:
        raise KeyError(f"unknown demo function {fname!r}")
    mu_total = float(mu.interval_mass(*mu.domain))
    eps = _float(cfg, "eps", 0.05) * mu_total
    gap = _float(cfg, "uniform_gap", 0.5)
    result = assembly.theorem_demo(
        f, mu, eps, gap,
        kappa_cap=_int(cfg, "kappa_cap", assembly.SEARCH_CAP),
        r_cap=_int(cfg, "r_cap", assembly.SEARCH_CAP))
    report = result.report()
    if "partial_sums" in cfg:  # refused before any file is written
        report["partial_sums"] = assembly.partial_sum_diagnostics(
            result.g, cfg["partial_sums"])
    _write_csv(out / "demo_g.csv", ["breakpoint", "value"],
               list(zip(result.g.xs, result.g.ys)), cfg)
    _write_json(out / "demo_report.json", report, cfg)
    if plot:
        _write_svg(out / "demo_g.svg", result.g.xs, result.g.ys, "corrected g")
    return EXIT_OK if result.claim.certified and result.below_eps \
        else EXIT_UNCERTIFIED


_COMMANDS = {
    "wiener-scan": _cmd_wiener_scan,
    "mset-limit": _cmd_mset_limit,
    "corrector": _cmd_corrector,
    "claim": _cmd_claim,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="menshov",
        description="measure-correction scans, constructions, and reports")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field (JSON-parsed value)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = _load_config(args)
        out.mkdir(parents=True, exist_ok=True)  # an --out naming a file fails
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.subcommand](cfg, out, args.plot)
    except (KeyError, json.JSONDecodeError, _ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # spec and domain errors too
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
