"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured quantity (run with -s to see all
lines; failing criteria show their line in the captured output)."""

import json
import time

import numpy as np
import pytest

from menshov import (CorrectorParams, MeasureSpec, StepFunction,
                     build_lambda, build_measure, build_psi, choose_r,
                     claim_run, kernel_sup, layout, mset_masses, normalize,
                     partial_sum_diagnostics, proposition_scan,
                     pushforward_arc_mass, running_integral_sup, theorem_demo,
                     wiener_scan)
from menshov.piecewise import PiecewiseLinearFn
from menshov.cli import main as cli_main

TWO_PI = 2.0 * np.pi


def report(num, title, ok, detail):
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {title}: {detail}"
    print(line, flush=True)
    return ok


def test_criterion_1_lebesgue_mset_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    mu = build_measure(MeasureSpec.lebesgue((0.0, TWO_PI)))
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(0.0, TWO_PI - 0.2)
        b = rng.uniform(a + 0.1, TWO_PI)
        n = int(rng.integers(1, 5001))
        sigma = rng.uniform(0.0, 0.8)
        tau = rng.uniform(0.01, 1.0 - sigma - 0.005)
        got, = mset_masses(mu, (a, b), [n], sigma, tau)
        worst = max(worst, abs(got - tau * (b - a)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    assert report(1, "Lebesgue M-set exactness", ok,
                  f"max deviation {worst:.3e}, runtime {dt:.2f}s")


def test_criterion_2_proposition_desk_scale():
    t0 = time.perf_counter()
    mu = build_measure(MeasureSpec.cantor(40))
    nrm = normalize(mu, (0.0, 1.0))
    lam = build_lambda(nrm, K=3, J=3, N_max=2000, m=1)
    scan = proposition_scan(mu, (0.0, 1.0), 0.2, 0.3, lam)
    dt = time.perf_counter() - t0
    ok = scan.tail_sup <= 0.02 and dt < 60.0
    assert report(2, "M-set limit along the certified index set", ok,
                  f"tail-sup {scan.tail_sup:.4f} (need <= 0.02), "
                  f"runtime {dt:.1f}s")


def test_criterion_3_pushforward_identity():
    rng = np.random.default_rng(103)
    specs = [
        MeasureSpec.lebesgue((0.0, 1.0)),
        MeasureSpec.cantor(40),
        MeasureSpec.mixture([(0.7, MeasureSpec.cantor(40)),
                             (0.3, MeasureSpec.lebesgue((0.0, 1.0)))]),
        MeasureSpec.mixture([(0.4, MeasureSpec.cantor(40)),
                             (0.6, MeasureSpec.lebesgue((0.0, 1.0)))]),
    ]
    measures = [build_measure(s) for s in specs]
    worst = 0.0
    done = 0
    while done < 100:
        mu = measures[int(rng.integers(len(measures)))]
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(a + 0.1, 1.0)
        if mu.interval_mass(a, b) <= 1e-9:
            continue  # interval must carry mass for the normalization
        n = int(rng.integers(1, 400))
        sigma = rng.uniform(0.0, 0.7)
        tau = rng.uniform(0.02, 1.0 - sigma - 0.01)
        m1, = mset_masses(mu, (a, b), [n], sigma, tau)
        m2 = mu.interval_mass(a, b) * pushforward_arc_mass(
            normalize(mu, (a, b)), n, sigma, tau)
        worst = max(worst, abs(m1 - m2))
        done += 1
    ok = worst <= 1e-9
    assert report(3, "pushforward identity on random pairs", ok,
                  f"max deviation {worst:.3e} over 100 pairs")


def test_criterion_4_wiener_behavior():
    atomic = normalize(build_measure(MeasureSpec.atomic(
        [(np.sqrt(2.0) - 1.0, 0.3), (np.sqrt(3.0) - 1.0, 0.7)],
        (0.0, 1.0))), (0.0, 1.0))
    # the last running average: the Cesaro average over n = 0..5000
    got_atomic = wiener_scan(atomic, 1, 5000)[2][-1]
    cantor = normalize(build_measure(MeasureSpec.cantor(40)), (0.0, 1.0))
    got_cantor = wiener_scan(cantor, 1, 5000)[2][-1]
    ok = abs(got_atomic - 0.58) <= 0.01 and got_cantor <= 0.02
    assert report(4, "Wiener averages (atomic vs singular continuous)", ok,
                  f"atomic {got_atomic:.4f} (target 0.58 +/- 0.01), "
                  f"continuous {got_cantor:.4f} (need <= 0.02)")


def test_criterion_5_corrector_properties():
    rng = np.random.default_rng(105)
    all_ok = True
    for _ in range(50):
        nu = int(rng.choice([9, 10, 12, 16, 24, 33, 64]))
        gamma = float(rng.uniform(-4.0, 4.0))
        eps = float(rng.uniform(0.02, 0.8))
        c = float(rng.uniform(0.0, 3.0))
        d = c + float(rng.uniform(0.2, TWO_PI - c - 0.1 if c < TWO_PI - 0.4
                                  else 0.2))
        r = choose_r(c, d, gamma, eps, nu)
        lay = layout(CorrectorParams(c, d, gamma, eps, nu, r))
        psi = build_psi(lay, gamma, nu)
        sup_ok = np.max(np.abs(psi.ys)) <= 2 * nu * abs(gamma)
        pts = rng.uniform(0.0, 1.0, 1000)
        iv = lay.e_intervals[
            rng.integers(0, lay.e_intervals.shape[0], 1000)]
        xs = iv[:, 0] + pts * (iv[:, 1] - iv[:, 0])
        on_e_ok = bool(np.all(psi(xs) == gamma))
        run_ok = running_integral_sup(psi) < eps
        count_ok = lay.removed.shape[0] == (nu - 4) * r
        leb_ok = lay.lebesgue_e() >= (d - c) * (1 - 5.0 / nu) - 1e-12
        all_ok &= sup_ok and on_e_ok and run_ok and count_ok and leb_ok
    assert report(5, "corrector properties on 50 random admissible params",
                  all_ok, "sup bound, E-values, running integral, layout")


def test_criterion_6_kernel_constant_stability():
    t0 = time.perf_counter()
    b_hats = []
    for nu in (16, 32, 64):
        for r in (1, 2):
            eps = 16.0 * TWO_PI / (r * nu)  # admissible by a factor 4
            lay = layout(CorrectorParams(0.0, TWO_PI, 1.0, eps, nu, r))
            psi = build_psi(lay, 1.0, nu)
            _, b_hat = kernel_sup(psi, j_max=64, x_grid=256, nu=nu, gamma=1.0)
            b_hats.append(b_hat)
    ratio = max(b_hats) / min(b_hats)
    dt = time.perf_counter() - t0
    ok = ratio <= 4.0 and dt < 600.0
    assert report(6, "kernel-bound stability across the (nu, r) sweep", ok,
                  f"max/min B-hat {ratio:.2f} (need <= 4), "
                  f"values {[round(b, 3) for b in b_hats]}, runtime {dt:.0f}s")


def test_criterion_7_claim_bound():
    measures = {
        "uniform": build_measure(MeasureSpec.lebesgue((0.0, TWO_PI))),
        "singular": build_measure(MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI))),
        "mixture": build_measure(MeasureSpec.mixture([
            (0.6, MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI))),
            (0.4, MeasureSpec.lebesgue((0.0, TWO_PI)))])),
    }
    phi = StepFunction((0.0, TWO_PI), [1.0, -0.5])
    ratios = {}
    ok = True
    for name, mu in measures.items():
        res = claim_run(phi, mu, 16, kappa_cap=512, r_cap=512)
        ratios[name] = res.mu_e / res.mu_total
        ok &= res.certified and ratios[name] >= 9.0 / 16.0
    assert report(7, "large-set bound mu(E) >= (9/16) mu_total", ok,
                  ", ".join(f"{k}={v:.4f}" for k, v in ratios.items()))


def test_criterion_8_theorem_demo_and_partial_sums():
    mu = build_measure(MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)))
    eps = 0.05 * mu.total_mass
    demo = theorem_demo(lambda x: x, mu, eps, uniform_gap=0.5)
    g = demo.g
    # continuity is structural for the piecewise-linear class: strictly
    # increasing breakpoints with a single value per breakpoint
    continuous = bool(np.all(np.diff(g.xs) > 0))
    demo_ok = demo.exceptional_mass < eps and continuous
    # partial-sum oracle: triangle wave with known coefficients and O(1/N)
    tri = PiecewiseLinearFn([0.0, np.pi, TWO_PI], [0.0, np.pi, 0.0])
    n = np.arange(1, 201)
    coeffs = tri.fourier_coefficients(200)
    closed = ((-1.0) ** n - 1.0) / (np.pi * n**2)
    coeff_ok = np.max(np.abs(coeffs[1:] - closed)) <= 1e-8
    diag = partial_sum_diagnostics(tri, [25, 50, 100, 200])
    scaled = [N * e for N, e in diag]
    decay_ok = (all(e2 < e1 for (_, e1), (_, e2) in zip(diag, diag[1:]))
                and max(scaled) / min(scaled) < 2.0)
    ok = demo_ok and coeff_ok and decay_ok
    assert report(8, "single-round correction demo + partial-sum oracle", ok,
                  f"exceptional mass {demo.exceptional_mass:.4f} "
                  f"(need < {eps:.4f}), nu {demo.nu}, "
                  f"N*sup_err {['%.3f' % s for s in scaled]}")


def test_criterion_9_determinism(tmp_path):
    cfg = {"measure": {"kind": "cantor", "levels": 40, "total": 1.0,
                       "domain": [0.0, TWO_PI]},
           "k": 1, "N": 200}
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        cfg_path = d / "cfg.json"
        d.mkdir()
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main(["wiener-scan", "--config", str(cfg_path),
                         "--out", str(d), "--plot"])
        assert code == 0
        outs.append((d / "wiener_scan.csv").read_bytes()
                    + (d / "wiener_scan.svg").read_bytes())
    ok = outs[0] == outs[1]
    assert report(9, "byte-identical reports across reruns", ok,
                  f"{len(outs[0])} bytes compared")
