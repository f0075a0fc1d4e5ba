import dataclasses
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from menshov import (CorrectorParams, MSetSpec, PiecewiseLinearFn, build_psi,
                     check_corrector, choose_r, corrector, kernel_sup, layout,
                     piecewise, running_integral_sup)
from menshov.corrector import MAX_LAYOUT_NODES, MAX_X_GRID, _kernel_rows
from menshov.msets import _interval_ends
from menshov.piecewise import _phi12

TWO_PI = 2.0 * np.pi


def make_psi(c=0.0, d=1.0, nu=10, r=2, gamma=1.0, eps=None):
    if eps is None:
        eps = 8.0 * abs(gamma) * (d - c) / (r * nu)  # comfortably admissible
    params = CorrectorParams(c, d, gamma, eps, nu, r)
    lay = layout(params)
    return lay, build_psi(lay, gamma, nu)


def test_choose_r_inequality_scan():
    # independent oracle: scan r upward until the strict inequality holds
    cases = [(0.0, 1.0, 1.0, 0.1, 10), (0.0, TWO_PI, 1.0, 1.0, 16),
             (1.0, 3.0, -2.5, 0.07, 12)]
    for c, d, g, e, nu in cases:
        r = 1
        while not 4.0 * abs(g) * (d - c) / (r * nu) < e:
            r += 1
        assert choose_r(c, d, g, e, nu) == r


def test_choose_r_known_values():
    assert choose_r(0.0, 1.0, 1.0, 0.1, 10) == 5  # q=50: 0.08 < 0.1; q=40 hits 0.1
    assert choose_r(0.0, TWO_PI, 1.0, 1.0, 16) == 2
    assert choose_r(0.0, 1.0, 0.0, 0.1, 10) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        CorrectorParams(0.0, 1.0, 1.0, 0.1, 8, 5)  # nu too small
    with pytest.raises(ValueError):
        CorrectorParams(0.0, 1.0, 1.0, 0.1, 10, 4)  # 4*1*1/40 = 0.1, not < 0.1
    CorrectorParams(0.0, 1.0, 1.0, 0.1, 10, 5)  # admissible
    nan, inf = float("nan"), float("inf")
    for c, d, gamma, eps in ((nan, 1.0, 1.0, 0.1), (0.0, inf, 0.0, 0.1),
                             (-inf, 1.0, 0.0, 0.1), (0.0, 1.0, nan, 0.1),
                             (0.0, 1.0, 1.0, nan), (0.0, 1.0, 1.0, inf)):
        with pytest.raises(ValueError):
            CorrectorParams(c, d, gamma, eps, 10, 5)
    for nu, r in ((inf, 5), (nan, 5), (10, inf), (10, nan), (10, 0)):
        with pytest.raises(ValueError, match="nu must|r must"):
            CorrectorParams(0.0, 1.0, 1.0, 0.1, nu, r)


def test_layout_node_limit():
    r = MAX_LAYOUT_NODES // 16
    CorrectorParams(0.0, 1.0, 1.0, 0.1, 16, r)  # q = MAX_LAYOUT_NODES
    with pytest.raises(ValueError, match="layout limit"):
        CorrectorParams(0.0, 1.0, 1.0, 0.1, 16, r + 1)
    # 4 |gamma| (d - c) / eps = MAX_LAYOUT_NODES - 16 and MAX_LAYOUT_NODES:
    # the least admissible q is MAX_LAYOUT_NODES, then 16 above it
    gamma = MAX_LAYOUT_NODES / 4.0
    assert choose_r(0.0, 1.0, gamma - 4.0, 1.0, 16) == r
    with pytest.raises(ValueError, match="layout limit"):
        choose_r(0.0, 1.0, gamma, 1.0, 16)
    # 4 |gamma| (d - c) / eps lies above every admissible q = r nu
    with pytest.raises(ValueError, match="layout nodes"):
        choose_r(0.0, 1.0, 2.0 * gamma, 1.0, 16)


def test_layout_peak_memory_per_node_fits_the_budget():
    # nu = 1024 removes (nu - 4) r = 65,280 of the q = 2^16 nodes, the most
    # memory per node; MAX_LAYOUT_NODES such nodes must fit in 0.5 GiB
    nu, r = 1024, 64
    tracemalloc.start()
    try:
        lay, psi = make_psi(nu=nu, r=r)
        checks = check_corrector(lay, psi, 1.0, 8.0 / (r * nu))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(checks.values())
    assert peak <= 0.5 * 2**30 * (r * nu) / MAX_LAYOUT_NODES


def test_layout_worked_example():
    lay, _ = make_psi(c=0.0, d=1.0, nu=10, r=2)
    assert lay.q == 20
    assert lay.delta == pytest.approx(0.005)
    assert lay.a_prime == pytest.approx(0.2)
    assert lay.b_prime == pytest.approx(0.8)
    assert lay.removed.shape == (12, 2)  # (nu-4) r = 12
    assert lay.removed[0] == pytest.approx([0.245, 0.25])
    assert lay.lebesgue_e() == pytest.approx(0.6 - 12 * 0.005)
    assert lay.lebesgue_e() >= (1.0 - 5.0 / 10.0) * 1.0


def test_layout_second_example():
    lay, _ = make_psi(c=0.0, d=TWO_PI, nu=9, r=1)
    assert lay.q == 9
    assert lay.removed.shape == (5, 2)  # s = 3..7
    nodes = 0.0 + np.arange(2, 8) * (TWO_PI / 9)  # c_s, s = 2r..q-2r
    assert (lay.a_prime, lay.b_prime) == (nodes[0], nodes[-1])
    assert np.array_equal(lay.e_intervals[:, 0], nodes)


def test_layout_node_alignment():
    for nu, r in [(10, 2), (16, 1), (64, 4)]:
        lay, _ = make_psi(c=0.5, d=2.5, nu=nu, r=r)
        nodes = 0.5 + np.arange(2 * r, lay.q - 2 * r + 1) * (2.0 / lay.q)
        assert (lay.a_prime, lay.b_prime) == (nodes[0], nodes[-1])
        assert np.array_equal(lay.e_intervals[:, 0], nodes)
        assert np.array_equal(lay.removed[:, 1], nodes[1:])
        # a' = c + 2(d-c)/nu by the grid identity c_{2r} = c + 2r (d-c)/q
        assert lay.a_prime == pytest.approx(0.5 + 2 * 2.0 / nu, abs=1e-12)


def test_removed_set_is_mset_of_inner_interval():
    # complement of E inside [a', b'] consists of (nu-4) r equal intervals
    # at offset 1 - 1/nu and width fraction 1/nu of each period block
    lay, _ = make_psi(c=0.0, d=1.0, nu=10, r=2)
    n_blocks = lay.removed.shape[0]
    spec = MSetSpec((float(lay.removed[0, 0] - (lay.nu - 1) * lay.delta),
                     float(lay.removed[-1, 1])),
                    n_blocks, 1.0 - 1.0 / lay.nu, 1.0 / lay.nu)
    ends = _interval_ends(spec.interval, [spec.n], spec.sigma, spec.tau)
    assert np.column_stack(ends) == pytest.approx(lay.removed, abs=1e-12)


def build_psi_loop(lay, gamma, nu):
    """Per-removed-interval breakpoint loop: reference for build_psi."""
    h = -gamma * (2 * nu - 1)
    xs, ys = [lay.a_prime - lay.delta, lay.a_prime], [0.0, gamma]
    for a_s, c_s in lay.removed:
        xs.extend([a_s, (a_s + c_s) / 2.0, c_s])
        ys.extend([gamma, h, gamma])
    return np.array(xs + [lay.b_prime + lay.delta]), np.array(ys + [0.0])


def test_build_psi_matches_breakpoint_loop():
    rng = np.random.default_rng(31)
    for _ in range(10):
        nu, r = int(rng.integers(9, 40)), int(rng.integers(1, 4))
        gamma = float(rng.uniform(-3.0, 3.0))
        lay, psi = make_psi(c=0.3, d=2.1, nu=nu, r=r, gamma=gamma)
        xs, ys = build_psi_loop(lay, gamma, nu)
        assert np.array_equal(psi.xs, xs) and np.array_equal(psi.ys, ys)


def test_psi_values_worked_example():
    lay, psi = make_psi(c=0.0, d=1.0, nu=10, r=2, gamma=1.0)
    assert psi(0.5) == pytest.approx(1.0)       # right endpoint of removed cell
    assert psi(0.4975) == pytest.approx(-19.0)  # dip bottom, -(2*10 - 1)
    assert psi(0.1) == 0.0 and psi(0.95) == 0.0
    # gamma = 0 gives the zero function
    _, psi0 = make_psi(gamma=0.0, eps=0.1)
    xs = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(psi0(xs))) == 0.0


def test_psi_equals_gamma_on_e_and_sup_bound():
    rng = np.random.default_rng(17)
    for _ in range(5):
        nu = int(rng.choice([10, 16, 33]))
        r = int(rng.integers(1, 4))
        gamma = float(rng.uniform(-3.0, 3.0))
        lay, psi = make_psi(c=0.3, d=2.1, nu=nu, r=r, gamma=gamma)
        for p, q in lay.e_intervals:
            pts = np.linspace(p, q, 5)
            assert np.allclose(psi(pts), gamma, atol=1e-9)
        # the sup over breakpoints is the exact sup of a piecewise-linear fn
        sup = np.max(np.abs(psi.ys))
        assert sup <= 2.0 * nu * abs(gamma)
        assert sup == pytest.approx((2 * nu - 1) * abs(gamma), abs=1e-12)


def test_e_samples_are_ends_and_midpoints_in_row_order():
    lay, _ = make_psi(c=0.3, d=2.1, nu=12, r=2)
    expect = [x for a, b in lay.e_intervals for x in (a, (a + b) / 2.0, b)]
    assert lay.e_samples().tolist() == expect


def test_check_corrector_passes_the_construction():
    for nu, r, gamma in [(10, 2, 1.0), (16, 1, -2.5), (33, 3, 0.4)]:
        lay, psi = make_psi(c=0.3, d=2.1, nu=nu, r=r, gamma=gamma)
        eps = 8.0 * abs(gamma) * (2.1 - 0.3) / (r * nu)
        checks = check_corrector(lay, psi, gamma, eps)
        assert set(checks) == {"sup_bound", "equals_gamma_on_E",
                               "running_integral", "removed_count",
                               "lebesgue_E"}
        assert all(v is True for v in checks.values())


def failing_keys(lay, psi, gamma, eps):
    return {k for k, ok in check_corrector(lay, psi, gamma, eps).items()
            if not ok}


def test_check_corrector_flags_psi_off_gamma_on_e():
    gamma = 1.0
    lay, psi = make_psi(nu=10, r=2, gamma=gamma)
    # psi's second breakpoint is a', the left end of the first piece of E
    assert psi.xs[1] == lay.e_intervals[0, 0]
    ys = psi.ys.copy()
    ys[1] = gamma / 2.0
    off = PiecewiseLinearFn(psi.xs, ys)
    assert failing_keys(lay, off, gamma, 0.4) == {"equals_gamma_on_E"}


def test_check_corrector_flags_eps_at_or_below_running_sup():
    lay, psi = make_psi(nu=10, r=2, gamma=1.0)
    run_sup = running_integral_sup(psi)
    for eps in (run_sup, run_sup / 2.0):
        assert failing_keys(lay, psi, 1.0, eps) == {"running_integral"}


def exact_extrema(psi):
    """running_integral_extrema's candidates in exact rational arithmetic
    on psi's double breakpoints and values."""
    xs = [Fraction(x) for x in psi.xs]
    ys = [Fraction(y) for y in psi.ys]
    antideriv = [Fraction(0)]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        antideriv.append(antideriv[-1] + (x1 - x0) * (y0 + y1) / 2)
    crossings = []
    for i in np.flatnonzero(psi.ys[:-1] * psi.ys[1:] < 0):
        x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
        xc = x0 + y0 / (y0 - y1) * (x1 - x0)
        crossings.append(antideriv[i] + y0 * (xc - x0) / 2)
    return [Fraction(0), *crossings, *antideriv[1:]]


@pytest.mark.parametrize("c, d, nu, r, gamma", [
    (0.0, 1.0, 10, 2, 1.0), (0.3, 2.1, 12, 3, -2.5), (1.0, TWO_PI, 16, 1, 0.7)])
def test_running_integral_rounding_covers_exact_extrema(c, d, nu, r, gamma):
    _, psi = make_psi(c=c, d=d, nu=nu, r=r, gamma=gamma)
    got = psi.running_integral_extrema()
    bound = corrector._running_integral_rounding(psi)
    assert 0.0 < bound < 1e-10
    for value, exact in zip(got, exact_extrema(psi), strict=True):
        assert abs(Fraction(value) - exact) <= bound


def test_check_corrector_counts_the_rounding_of_the_running_integral():
    # an eps one ulp above the computed sup is within its rounding: refused
    lay, psi = make_psi(nu=10, r=2, gamma=1.0)
    run_sup = running_integral_sup(psi)
    bound = corrector._running_integral_rounding(psi)
    assert failing_keys(lay, psi, 1.0, np.nextafter(run_sup, 1.0)) == {
        "running_integral"}
    assert failing_keys(lay, psi, 1.0, run_sup + 2.0 * bound) == set()


def test_check_corrector_flags_missing_removed_row():
    lay, psi = make_psi(nu=10, r=2, gamma=1.0)
    short = dataclasses.replace(lay, removed=lay.removed[1:])
    assert failing_keys(short, psi, 1.0, 0.4) == {"removed_count"}


def test_check_corrector_flags_peak_just_above_two_nu_gamma():
    # the construction peaks at (2 nu - 1)|gamma|, so the bound needs no slack
    lay, psi = make_psi(nu=10, r=2, gamma=1.0)
    assert psi.xs[3] == lay.removed[0].mean()  # first dip midpoint
    ys = psi.ys.copy()
    ys[3] = -(2 * 10 * 1.0 + 5e-13)
    high = PiecewiseLinearFn(psi.xs, ys)
    assert failing_keys(lay, high, 1.0, 0.4) == {"sup_bound"}


def test_check_corrector_flags_e_just_short_of_one_minus_five_over_nu():
    # Leb(E) = (d - c)(1 - 4/nu)(1 - 1/nu) clears the bound by 4(d - c)/nu^2
    lay, psi = make_psi(nu=10, r=2, gamma=1.0)
    need = (lay.d - lay.c) * (1 - 5.0 / 10)
    e = lay.e_intervals.copy()
    e[0, 1] -= lay.lebesgue_e() - need + 5e-13
    short = dataclasses.replace(lay, e_intervals=e)
    assert need - short.lebesgue_e() == pytest.approx(5e-13, rel=1e-2)
    assert failing_keys(short, psi, 1.0, 0.4) == {"lebesgue_E"}


def test_per_period_integral_cancellation():
    lay, psi = make_psi(c=0.0, d=1.0, nu=10, r=2, gamma=1.0)
    # over each full period [c_{s-1}, c_s] in the removed range the
    # plateau mass gamma (nu - 1) delta cancels the dip mass; the exact
    # running integral is taken at psi's breakpoints a' and c_s
    at_xs = [Fraction(0), *exact_extrema(psi)[1 - psi.xs.size:]]
    idx = range(1, psi.xs.size - 1, 3)
    assert psi.xs[idx].tolist() == [lay.a_prime, *lay.removed[:, 1]]
    for s0, s1 in zip(idx, idx[1:]):
        assert abs(at_xs[s1] - at_xs[s0]) < 1e-14


def test_running_integral_sup_bound_and_oracle():
    assert running_integral_sup(
        build_psi(layout(CorrectorParams(0.0, 1.0, 0.0, 0.1, 10, 1)), 0.0, 10)) == 0.0
    rng = np.random.default_rng(23)
    for _ in range(6):
        nu = int(rng.choice([10, 16, 20]))
        gamma = float(rng.uniform(-2.0, 2.0))
        eps = float(rng.uniform(0.05, 0.5))
        c = float(rng.uniform(0.0, 2.0))
        d = c + float(rng.uniform(0.5, 3.0))
        r = choose_r(c, d, gamma, eps, nu)
        lay = layout(CorrectorParams(c, d, gamma, eps, nu, r))
        psi = build_psi(lay, gamma, nu)
        sup = running_integral_sup(psi)
        assert sup < eps
        # dense-grid Riemann oracle
        grid = np.linspace(c - 0.1, d + 0.1, 1_000_001)
        dense = np.max(np.abs(np.cumsum(psi((grid[:-1] + grid[1:]) / 2.0))
                              * (grid[1] - grid[0])))
        assert sup == pytest.approx(dense, abs=1e-6)


def test_kernel_sup_brute_force_oracle():
    lay, psi = make_psi(c=0.0, d=1.0, nu=10, r=1, gamma=1.0)
    sup, b_hat = kernel_sup(psi, j_max=3, x_grid=32, nu=10, gamma=1.0)
    # oracle: very dense midpoint rule over the support
    t = np.linspace(lay.a_prime - lay.delta, lay.b_prime + lay.delta, 2_000_001)
    mid = (t[:-1] + t[1:]) / 2.0
    pm = psi(mid)
    dt = t[1] - t[0]
    brute = 0.0
    for j in (1, 2, 3):
        for x in np.linspace(0.0, TWO_PI, 32):
            u = mid - x
            brute = max(brute, abs(np.sum(pm * j * np.sinc(j * u / np.pi)) * dt))
    assert sup == pytest.approx(brute, rel=1e-5)
    assert b_hat == pytest.approx(sup / 10.0)


def kernel_sup_single(psi, j, xs, nu, gamma):
    """Kernel sup at one frequency j over explicit shifts (stability helper)."""
    *_, rows = _kernel_rows(psi, j, xs)
    return float(np.max(np.abs(rows[-1]))) / (nu * abs(gamma))


def test_kernel_sup_stability_in_resolving_regime():
    # measured at frequencies that resolve the dips (j ~ 1/delta) with x at
    # the removed-interval midpoints, the normalized sup is stable across
    # nu and r: the absolute-constant behavior of the kernel bound
    vals = []
    for nu in (16, 32, 64):
        for r in (1, 2):
            lay, psi = make_psi(c=0.0, d=TWO_PI, nu=nu, r=r, gamma=1.0)
            j_star = max(1, int(round(0.5 / lay.delta)))
            xs = lay.removed.mean(axis=1)
            vals.append(kernel_sup_single(psi, j_star, xs, nu=nu, gamma=1.0))
    assert max(vals) / min(vals) <= 2.0


# 4-point Gauss-Legendre on cells that resolve psi's segments and the kernel
# phase: the spatial quadrature kernel_sup used before the omega-sum
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _segment_quadrature(psi, j, cells_per_period=8):
    """Nodes/weights with at most 2 pi / cells_per_period phase per cell."""
    period = TWO_PI / j
    nodes, weights = [], []
    for x0, x1 in zip(psi.xs[:-1], psi.xs[1:]):
        n_cells = max(1, int(np.ceil(cells_per_period * (x1 - x0) / period)))
        edges = np.linspace(x0, x1, n_cells + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = np.diff(edges) / 2.0
        nodes.append((mid[:, None] + half[:, None] * _GL_NODES).ravel())
        weights.append((half[:, None] * _GL_WEIGHTS).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def oracle_kernel_sup(psi, j_max, x_grid):
    xs = np.linspace(0.0, TWO_PI, x_grid)
    sup = 0.0
    for j in range(1, j_max + 1):
        t, w = _segment_quadrature(psi, j)
        kern = j * np.sinc(j * (t[:, None] - xs[None, :]) / np.pi)
        sup = max(sup, float(np.max(np.abs((w * psi(t)) @ kern))))
    return sup


# (c, d, gamma, nu, r, j_max, x_grid): the six criterion-6 points, a negative
# gamma, and supports [1, 20] and [1, 40], where T = max |t - x| > 2 pi needs
# omega sub-blocks (without them [1, 40] is off by 8.6e-6 relative)
ORACLE_CASES = ([(0.0, TWO_PI, 1.0, nu, r, 64, 256)
                 for nu in (16, 32, 64) for r in (1, 2)]
                + [(0.0, TWO_PI, -2.5, 16, 1, 32, 128),
                   (1.0, 20.0, 1.0, 12, 1, 16, 64),
                   (1.0, 40.0, 1.0, 12, 1, 16, 64)])


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[
    *(f"nu{nu}-r{r}" for nu in (16, 32, 64) for r in (1, 2)),
    "negative-gamma", "support-1-20", "support-1-40"])
def test_kernel_sup_matches_segment_quadrature_oracle(case):
    c, d, gamma, nu, r, j_max, x_grid = case
    _, psi = make_psi(c=c, d=d, nu=nu, r=r, gamma=gamma,
                      eps=16.0 * abs(gamma) * (d - c) / (r * nu))
    sup, b_hat = kernel_sup(psi, j_max, x_grid, nu=nu, gamma=gamma)
    assert sup == pytest.approx(oracle_kernel_sup(psi, j_max, x_grid),
                                rel=1e-8)
    assert b_hat == sup / (nu * abs(gamma))


def phi12_series(theta, terms=40):
    """phi1, phi2 at z = i theta from their Taylor series in exact rationals."""
    z_re, z_im = Fraction(1), Fraction(0)  # z^k, starting at k = 0
    t = Fraction(theta)
    sums = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for k in range(terms):
        for s, shift in zip(sums, (1, 2)):
            s[0] += z_re / math.factorial(k + shift)
            s[1] += z_im / math.factorial(k + shift)
        z_re, z_im = -z_im * t, z_re * t
    return [complex(float(re), float(im)) for re, im in sums]


def test_phi12_matches_exact_series():
    # both sides of the |z| = 0.5 switch, down to where the closed forms
    # would lose every digit to cancellation
    thetas = np.concatenate([np.geomspace(1e-9, 3.0, 40), [0.4999, 0.5]])
    thetas = np.concatenate([thetas, -thetas])
    phi1, phi2 = _phi12(1j * thetas)
    for th, p1, p2 in zip(thetas, phi1, phi2):
        want1, want2 = phi12_series(float(th))
        assert abs(p1 - want1) <= 1e-15 * abs(want1)
        assert abs(p2 - want2) <= 1e-14 * abs(want2)


def phi12_out_of_place(z):
    """_phi12 with closed forms at every entry and a Horner loop that makes
    new arrays: the bitwise oracle for the selective, in-place version."""
    inv_fact = 1.0 / np.cumprod([1.0, *range(1, 19)])
    small = np.abs(z) < 0.5
    zb = np.where(small, 1.0, z)
    em1 = np.exp(zb) - 1.0
    phi1, phi2 = em1 / zb, (em1 - zb) / (zb * zb)
    zs, t1, t2 = z[small], 0.0, 0.0
    for k in range(16, -1, -1):
        t1, t2 = t1 * zs + inv_fact[k + 1], t2 * zs + inv_fact[k + 2]
    phi1[small], phi2[small] = t1, t2
    return phi1, phi2


def test_phi12_bitwise_equals_out_of_place_oracle():
    # both signs of w (fourier_coefficients takes w = -n), segment lengths
    # on both sides of the |z| = 0.5 switch, and all-small / no-small inputs
    w = np.concatenate([-np.arange(300.0), np.linspace(0.0, 70.0, 701)])
    h = np.concatenate([np.geomspace(1e-12, 3.0, 60), [0.02, 0.5, 1.0]])
    for z in (1j * w[:, None] * h, np.full((3, 4), 0.1j),
              np.full((3, 4), 2.0j), np.zeros((0, 4), complex)):
        for got, want in zip(_phi12(z), phi12_out_of_place(z)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def kernel_rows_per_node(psi, j_max, xs):
    """_kernel_rows with a cos and a sin per (omega node, x), the form it had
    before the phase was factored, one row at a time; with each row, S_j =
    sum of |p(w)| over the nodes w < j that row j sums."""
    span = max(psi.xs[-1] - xs.min(), xs.max() - psi.xs[0])
    m = max(1, int(np.ceil(span / TWO_PI)))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    offs = ((np.arange(m)[:, None] + (1.0 + nodes) / 2.0) / m).ravel()
    wts = np.tile(weights / (2.0 * m), m)
    row, abs_p, rows, sums = np.zeros(xs.size), 0.0, [], []
    for j in range(j_max):
        w = j + offs
        p = psi.transform(w)[:, 0] * wts
        wx = w[:, None] * xs
        row = row + (p.real[:, None] * np.cos(wx)
                     + p.imag[:, None] * np.sin(wx)).sum(axis=0)
        abs_p += float(np.abs(p).sum())
        rows.append(row)
        sums.append(abs_p)
    return np.array(rows), np.array(sums), offs.size


def kernel_row_case(name):
    """(psi, j_max, xs) of each case the factored phase is checked on."""
    if name.startswith("nu"):  # a criterion-6 sweep point
        nu, r = (int(v) for v in name[2:].split("-r"))
        _, psi = make_psi(d=TWO_PI, nu=nu, r=r, eps=16.0 * TWO_PI / (r * nu))
        return psi, 64, np.linspace(0.0, TWO_PI, 256)
    if name == "negative-gamma":
        _, psi = make_psi(d=TWO_PI, nu=16, r=1, gamma=-2.5, eps=2.5 * TWO_PI)
        return psi, 32, np.linspace(0.0, TWO_PI, 128)
    if name.startswith("support-1-"):  # m = 3 and 6 omega sub-blocks
        d = float(name[10:])
        _, psi = make_psi(c=1.0, d=d, nu=12, r=1, eps=16.0 * (d - 1.0) / 12)
        return psi, 16, np.linspace(0.0, TWO_PI, 64)
    if name in ("cli-default", "support-0-50"):  # the CLI's corrector
        d = TWO_PI if name == "cli-default" else 50.0  # 4,539 breakpoints
        _, psi = make_psi(d=d, nu=16, r=choose_r(0.0, d, 1.0, 0.1, 16),
                          eps=0.1)
        return psi, 16, np.linspace(0.0, TWO_PI, 64)
    # the resolving regime: j* = 0.5 / delta at the removed midpoints
    nu, r = (int(v) for v in name[12:].split("-r"))
    lay, psi = make_psi(c=0.0, d=TWO_PI, nu=nu, r=r, gamma=1.0)
    return psi, int(round(0.5 / lay.delta)), lay.removed.mean(axis=1)


KERNEL_ROW_CASES = [*(f"nu{nu}-r{r}" for nu in (16, 32, 64) for r in (1, 2)),
                    "negative-gamma", "support-1-20", "support-1-40",
                    "cli-default", "support-0-50", "resolving-nu16-r1",
                    "resolving-nu64-r2"]


@pytest.mark.parametrize("name", KERNEL_ROW_CASES)
def test_kernel_rows_within_rounding_of_the_per_node_phase(name):
    # Both forms sum R_j(x) = sum over nodes w = k + o, k < j, of
    # Re[p(w) e^{-iwx}]; with u = 2^-53, X = max |x|, n = 12 m offsets
    # and S_j = sum |p(w)|:
    # - Psi: the oracle takes p(w) from transform(w), one node at a time;
    #   the factored form from transform(k, offs), whose phase is factored
    #   as e^{ika} e^{ioa}.  Per node they differ by at most the Gauss
    #   weight times u (5 |a| (k + o) + 5 segments + 64) A, with |a| the
    #   largest left end of psi and A = sum h (|y0| + |y1|) (derived in
    #   test_transform_grid_within_rounding_of_per_segment_oracle).  Row
    #   j's weights sum to j and its nodes have k + o <= j, so this adds
    #   u j (5 j |a| + 5 segments + 64) A;
    # - phase: the per-node form rounds w = k + o and w x, within
    #   2 (k + 1) X u (1 + u) of (k + o) x; the factored one o x and k x,
    #   within (k + 1) X u.  cos and sin are 1-Lipschitz and k + 1 <= j, so
    #   together 3 j X u (1 + u) |p(w)|;
    # - functions and products: numpy's cos and sin are within 4 ulp <= 8 u
    #   of values of modulus <= 1 (its SIMD loops; glibc's within 1 ulp).
    #   Per node a cos, a sin, two products and a sum: 19 u (|Re p| +
    #   |Im p|) <= 27 u |p|; factored two exps, two complex products and
    #   a real part: 2 (8 sqrt 2 + sqrt 5) u |p| <= 28 u |p|;
    # - the sum over the n offsets in a fixed order: (n - 1) u (|Re| +
    #   |Im|) <= 1.5 n u sum |p| on each side;
    # - the running sum adds row j - 1, which is at most S_j: j u S_j on
    #   each side.
    # So |row_j - oracle_j| <= u (3 j X + 3 j + 3 n + 64) S_j plus the Psi
    # term, the spare j and 9 covering the products of two roundings.
    psi, j_max, xs = kernel_row_case(name)
    want, sums, n = kernel_rows_per_node(psi, j_max, xs)
    got = np.vstack(list(_kernel_rows(psi, j_max, xs)))
    j = np.arange(1, j_max + 1)
    h = np.diff(psi.xs)
    mass = float(np.sum(h * (np.abs(psi.ys[:-1]) + np.abs(psi.ys[1:]))))
    a = float(np.abs(psi.xs[:-1]).max())
    bound = np.finfo(float).eps / 2 * (
        sums * (3 * j * np.abs(xs).max() + 3 * j + 3 * n + 64)
        + j * (5 * j * a + 5 * h.size + 64) * mass)
    assert got.shape == want.shape == (j_max, xs.size)
    assert np.all(np.abs(got - want).max(axis=1) <= bound)
    if name in KERNEL_ROW_CASES[:6]:  # the oracle is the former body
        assert float(np.abs(want).max()) == PER_NODE_SWEEP_SUPS[
            KERNEL_ROW_CASES.index(name)]


def test_kernel_rows_agree_for_every_chunking(monkeypatch):
    _, psi = make_psi(c=1.0, d=20.0, nu=12, r=1, gamma=1.0)
    xs = np.linspace(0.0, TWO_PI, 33)
    ref = np.vstack(list(_kernel_rows(psi, 20, xs)))
    assert ref.shape == (20, 33)
    # one omega-block per chunk: rows are the same running sum
    monkeypatch.setattr(corrector, "_CHUNK_ELEMS", 1)
    blocks = list(_kernel_rows(psi, 20, xs))
    assert len(blocks) == 20 and np.array_equal(np.vstack(blocks), ref)


def test_kernel_sup_memory_does_not_grow_with_support():
    # 4,539 breakpoints: one unsliced Psi block over all 4,538 segments
    # peaks at 24.9 MB under tracemalloc
    r = choose_r(0.0, 50.0, 1.0, 0.1, 16)
    _, psi = make_psi(d=50.0, nu=16, r=r, eps=0.1)
    tracemalloc.start()
    try:
        sup, _ = kernel_sup(psi, 16, 64, 16, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert sup == 0.19095760171517656  # bitwise the sup of one Psi block


def test_kernel_sup_memory_does_not_grow_with_j_max():
    # every block of rows holds the same temporaries, whatever j_max: at
    # the nu = 64, r = 2 sweep point j_max = 64 and 4096 peak at 645 and
    # 638 KB under tracemalloc (805 and 889 KB when transform took one
    # omega per row); the six-point sweep peaks at 0.64 MB (0.81 MB then)
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, psi = make_psi(d=TWO_PI, nu=64, r=2, eps=16.0 * TWO_PI / 128)
    short, long = (peak(lambda: kernel_sup(psi, j_max, 256, 64, 1.0))
                   for j_max in (64, 4096))
    assert abs(long - short) <= 8 * 1024

    def sweep():
        for nu in (16, 32, 64):
            for r in (1, 2):
                kernel_sup(make_psi(d=TWO_PI, nu=nu, r=r,
                                    eps=16.0 * TWO_PI / (r * nu))[1],
                           64, 256, nu, 1.0)
    assert peak(sweep) <= 0.81e6


@pytest.mark.parametrize("d", [TWO_PI, 50.0])
def test_kernel_sup_peak_memory_per_point_fits_the_budget(d):
    # m = 1 and 7 omega sub-blocks: 12 m phases per x point, 34.5 and 26.2
    # doubles per point and sub-block at 2^14 points; MAX_X_GRID points of
    # one sub-block must fit in 0.5 GiB
    _, psi = make_psi(d=d, nu=16, r=choose_r(0.0, d, 1.0, 0.1, 16), eps=0.1)
    m, x_grid = corrector._sub_blocks(psi, 0.0, TWO_PI), 1 << 14
    assert m == (1 if d == TWO_PI else 7)
    tracemalloc.start()
    try:
        kernel_sup(psi, 2, x_grid, 16, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**30 * (m * x_grid) / MAX_X_GRID


def test_kernel_sup_refuses_x_grid_times_sub_blocks_above_the_limit(
        monkeypatch):
    # the d = 50 corrector needs m = 7 sub-blocks, so 7 x_grid is capped
    _, psi = make_psi(d=50.0, nu=16, r=choose_r(0.0, 50.0, 1.0, 0.1, 16),
                      eps=0.1)
    with pytest.raises(ValueError, match="times 7 omega sub-blocks"):
        kernel_sup(psi, 1, MAX_X_GRID // 7 + 1, 16, 1.0)
    monkeypatch.setattr(corrector, "MAX_X_GRID", 7 * 64)
    assert kernel_sup(psi, 16, 64, 16, 1.0)[0] == 0.19095760171517656
    with pytest.raises(ValueError, match="exceeds the 448-point limit"):
        kernel_sup(psi, 16, 65, 16, 1.0)


# kernel_sup(psi, 64, 256, nu, 1.0) at the six criterion-6 points, nu in
# (16, 32, 64) by r in (1, 2), with the x phase factored as e^{-ijx} e^{-iox}
# and Psi's as e^{ika} e^{ioa}; the per-node cos and sin gave
# PER_NODE_SWEEP_SUPS
SWEEP_SUPS = [22.42385697876016, 11.000673971744662, 11.048800149776337,
              8.150867367937336, 8.203295905914807, 1.5896367250140724]
PER_NODE_SWEEP_SUPS = [22.423856978760156, 11.00067397174464,
                       11.048800149776337, 8.150867367937355,
                       8.203295905914779, 1.589636725014064]


def test_kernel_sup_sweep_sups_are_pinned():
    sups = []
    for nu in (16, 32, 64):
        for r in (1, 2):
            _, psi = make_psi(d=TWO_PI, nu=nu, r=r,
                              eps=16.0 * TWO_PI / (r * nu))
            sups.append(kernel_sup(psi, 64, 256, nu, 1.0)[0])
    assert sups == SWEEP_SUPS  # bitwise


def test_kernel_sup_evaluates_phi12_once_per_width(monkeypatch):
    _, psi = make_psi(d=TWO_PI, nu=64, r=2, eps=16.0 * TWO_PI / 128)
    widths = np.unique(np.diff(psi.xs)).size
    assert (psi.xs.size - 1, widths) == (362, 15)
    columns = []

    def counting_phi12(z):
        columns.append(z.shape[-1])
        return _phi12(z)

    monkeypatch.setattr(piecewise, "_phi12", counting_phi12)
    kernel_sup(psi, 64, 256, 64, 1.0)
    assert columns and set(columns) == {widths}


def test_kernel_sup_rejects_empty_ranges():
    _, psi = make_psi()
    for j_max, x_grid in ((0, 8), (-1, 8), (4, 0)):
        with pytest.raises(ValueError):
            kernel_sup(psi, j_max, x_grid, 10, 1.0)


def test_kernel_sup_needs_nu_and_gamma():
    _, psi = make_psi(d=TWO_PI, nu=16, r=1, eps=2.0)
    for call in (lambda: kernel_sup(psi, 4, 8),
                 lambda: kernel_sup(psi, 4, 8, 16),
                 lambda: kernel_sup(psi, 4, 8, gamma=1.0)):
        with pytest.raises(TypeError):
            call()


def test_kernel_sup_checks_nu_by_the_one_nu_rule():
    _, psi = make_psi(d=TWO_PI, nu=16, r=1, eps=2.0)
    # nu = 0 would divide by zero, nu = -16 give a negative b_hat
    for nu in (0, -16, 8, 16.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be an integer > 8"):
            kernel_sup(psi, 4, 8, nu, 1.0)
    sup, b_hat = kernel_sup(psi, 4, 8, 16, -2.0)
    assert b_hat == sup / 32.0
    for gamma in (0, 0.0, -0.0):  # B-hat is undefined only at gamma = 0
        assert kernel_sup(psi, 4, 8, 16, gamma) == (sup, None)


def test_kernel_sup_imports_no_scipy():
    code = ("import sys, menshov; from menshov import corrector as c; "
            "p = c.CorrectorParams(0.0, 1.0, 1.0, 0.8, 10, 1); "
            "c.kernel_sup(c.build_psi(c.layout(p), 1.0, 10), 4, 8, 10, 1.0); "
            "assert 'scipy' not in sys.modules, 'scipy was imported'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
