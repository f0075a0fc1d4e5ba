import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menshov import (ConvergenceScan, CorrectorParams, IndexSet, Measure,
                     MeasureSpec, QuadratureError, StepFunction, build_lambda,
                     build_measure, layout, normalize, spectrum, wiener_scan)
from menshov.fourier import (MAX_GRID_CELLS, MAX_PAIRS, START_REFINEMENT,
                             _U, _atom_sum, _grid_cells)
from conftest import TWO_PI, cantor_coefficient_oracle, exact_hat


def delta_measure(x0=0.25):
    return normalize(build_measure(MeasureSpec.atomic([(x0, 1.0)])), (0.0, 1.0))


def coeff(nu, j, refinement=512):
    """(value, error_bound) at one nonnegative frequency."""
    vals, errs = spectrum(nu, j, refinement).coefficients([j])
    return vals[0], errs[0]


def lambda_jk(nu, j, k, N_max, refinement=512):
    """Lambda_{j,k}: the n <= N_max with certified |nu_hat(n k)| <= 1/j."""
    freqs = k * np.arange(N_max + 1)
    vals, errs = spectrum(nu, k * N_max, refinement).coefficients(freqs)
    return np.flatnonzero(np.abs(vals) + errs <= 1.0 / j)


def pair_bounds(nu, K, N_max, refinement):
    """|v| - e and |v| + e of nu_hat(k n), rows k = 1..K, columns
    n = 0..N_max, every row from one pass on the grid K * N_max needs."""
    ns = np.arange(N_max + 1)
    spec = spectrum(nu, K * N_max, refinement)
    lo, hi = [], []
    for k in range(1, K + 1):
        vals, errs = spec.coefficients(k * ns)
        lo.append(np.abs(vals) - errs)
        hi.append(np.abs(vals) + errs)
    return np.array(lo), np.array(hi)


def build_lambda_oracle(nu, K, J, N_max, m=1, refinement=512):
    """Members of the single-level build_lambda that coarse-to-fine
    replaced: every multiple of m tested on the ceiling grid alone."""
    _, hi = pair_bounds(nu, K, N_max, refinement)
    keep = np.all(hi <= 1.0 / J, axis=0) & (np.arange(N_max + 1) % m == 0)
    return np.flatnonzero(keep)


def test_lebesgue_orthogonality(lebesgue_unit_norm):
    for j in (1, 3, 5):
        val, err = coeff(lebesgue_unit_norm, j)
        assert abs(val) < 1e-12
    val0, _ = coeff(lebesgue_unit_norm, 0)
    assert val0 == pytest.approx(1.0, abs=1e-12)


def test_dirac_unimodular():
    nu = delta_measure(0.3)
    for j in (1, 2, 4, 7):
        val, err = coeff(nu, j)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)
        # no continuous mass: no midpoint term and nothing that grows with
        # the grid, only the rounding of the atom sum
        assert 0.0 < err == coeff(nu, j, refinement=8)[1] < 1e-13


def test_cantor_coefficient_matches_product_formula(cantor40_norm):
    val, err = coeff(cantor40_norm, 1, refinement=1 << 23)
    oracle = cantor_coefficient_oracle(1)[0]
    assert abs(val - oracle) < 1e-6
    assert err < 1e-6


def test_coefficient_invariants(cantor40_norm):
    spec = spectrum(cantor40_norm, 5)
    vals, errs = spec.coefficients([0, 1, 2, 5])
    assert np.all(np.abs(vals) <= 1.0 + errs)
    assert abs(vals[0] - 1.0) <= errs[0] + 1e-12
    for bad in ([-1], [6]):  # negative or above f_max
        with pytest.raises(ValueError):
            spec.coefficients(bad)


def test_coefficients_refuse_non_integer_frequencies():
    spec = spectrum(build_measure(MeasureSpec.lebesgue()), 5)
    for bad in ([0.9], [1, 2.5], [np.nan], [np.inf], np.array([[3.0, 1e-300]]),
                [3.0], [3.0, 0.0]):  # an integral float is refused too
        with pytest.raises(ValueError,
                           match="frequencies must have an integer dtype"):
            spec.coefficients(bad)
    with pytest.raises(ValueError, match="got float64"):
        spec.coefficients([3.0])


def test_batch_agrees_with_direct(cantor40_norm):
    freqs = np.array([0, 1, 2, 3, 10, 50])
    vals, errs = spectrum(cantor40_norm, 50).coefficients(freqs)
    for f, v in zip(freqs, vals):
        direct, _ = coeff(cantor40_norm, int(f), refinement=4096)
        assert abs(v - direct) < 1e-3
    oracle = cantor_coefficient_oracle(freqs)
    assert np.max(np.abs(vals - oracle)) < np.max(errs) + 1e-9


@pytest.mark.parametrize("spec", [
    MeasureSpec.lebesgue((0.0, TWO_PI)),
    MeasureSpec.atomic([(1.0, 0.3), (2.5, 0.7)], (0.0, TWO_PI)),
    MeasureSpec.cantor(40),
    MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)),
    MeasureSpec.cdf_table([(0.0, 0.0), (1.0, 0.2), (1.0, 0.5), (3.0, 1.0)]),
    MeasureSpec.mixture([(0.5, MeasureSpec.cantor(40)),
                         (0.5, MeasureSpec.lebesgue((0.0, 1.0)))]),
], ids=["lebesgue", "atomic", "cantor-unit", "cantor", "cdf_table", "mixture"])
def test_spectrum_coarse_reads_match_fresh_pass(spec):
    # build_lambda refines one pass at K*N level by level; its members rest
    # on a refined CDF being bitwise a fresh pass on the finer grid
    mu = build_measure(spec)
    nu = normalize(mu, mu.domain)
    f_max = 3 * 700
    coarse = spectrum(nu, f_max, refinement=8)
    for r in (16, 64, 100):  # one doubling, two, and a non-power-of-two
        refined = coarse.refined(r)
        assert refined.cdf.size == _grid_cells(f_max, r) + 1
        assert np.array_equal(refined.cdf, spectrum(nu, f_max, r).cdf)


@pytest.mark.parametrize("refinement", [8, 16, 32, 64])
def test_single_grid_bounds_cover_cantor_oracle(cantor40_norm, refinement):
    # build_lambda reads every k <= 3 from the grid 3 * N_max needs: each
    # bound must cover the product formula, also for k < 3, whose grid is
    # finer than its own frequencies need
    spec = spectrum(cantor40_norm, 6000, refinement)
    ns = np.arange(2001)
    for k in (1, 2, 3):
        vals, errs = spec.coefficients(k * ns)
        oracle = cantor_coefficient_oracle(k * ns)
        assert np.all(np.abs(vals - oracle) <= errs + 1e-12)


weights = st.floats(0.1, 4.0)
domains = st.sampled_from([(0.0, 1.0), (0.0, TWO_PI), (-1.0, 3.0)])


@st.composite
def simple_specs(draw, domain):
    """A Lebesgue, atomic, Cantor or cdf_table spec over domain."""
    u, v = domain
    points = st.floats(u, v)
    kind = draw(st.sampled_from(["lebesgue", "atomic", "cantor",
                                 "cdf_table"]))
    if kind == "lebesgue":
        return MeasureSpec.lebesgue(domain, draw(weights))
    if kind == "atomic":
        return MeasureSpec.atomic(draw(st.lists(st.tuples(points, weights),
                                                min_size=1, max_size=4)),
                                  domain)
    if kind == "cantor":
        return MeasureSpec.cantor(draw(st.integers(1, 53)), draw(weights),
                                  domain)
    inner = draw(st.lists(points, unique=True, max_size=4))
    rows, F = [], 0.0
    for x in [u, *sorted(set(inner) - {u, v}), v]:
        if rows:
            F += draw(weights)
        rows.append((x, F))
        if draw(st.booleans()):  # a repeated x: a jump, an atom
            F += draw(weights)
            rows.append((x, F))
    return MeasureSpec.cdf_table(rows)


@st.composite
def measure_specs(draw):
    """A spec of any of the five kinds; mixtures of the other four."""
    domain = draw(domains)
    parts = draw(st.lists(simple_specs(domain), min_size=1, max_size=3))
    if len(parts) == 1:
        return parts[0]
    return MeasureSpec.mixture([(draw(weights), p) for p in parts])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(spec=measure_specs(), f_max=st.integers(1, 400),
       refinement=st.sampled_from([2, 8, 64]))
def test_certified_bounds_cover_exact_transforms(spec, f_max, refinement):
    # no allowance: at f = 0 and without a continuous part the bound is
    # its rounding term alone
    mu = build_measure(spec)
    freqs = np.arange(f_max + 1)
    vals, errs = spectrum(normalize(mu, mu.domain), f_max,
                          refinement).coefficients(freqs)
    assert np.all(np.abs(vals - exact_hat(spec, freqs)) <= errs)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs a long double with a 64-bit mantissa")
@pytest.mark.parametrize("measure_spec", [
    MeasureSpec.cantor(40),
    MeasureSpec.mixture([(0.5, MeasureSpec.cantor(12)),
                         (0.5, MeasureSpec.lebesgue())]),
], ids=["cantor", "mixture"])
def test_fft_and_shift_rounding_within_rho(measure_spec):
    # the midpoint sum of the grid's own cell masses, in long double, is
    # the value the rFFT and the half-cell shift approximate: their
    # rounding must stay within rho's (8 L + 12) _U S
    nu = normalize(build_measure(measure_spec), (0.0, 1.0))
    spec = spectrum(nu, 2048, 2)
    grid = spec.cdf.size - 1
    masses = np.diff(spec.cdf)
    freqs = np.unique(np.concatenate([
        [0, 1, 2, grid // 2 - 1, grid // 2],
        np.random.default_rng(0).integers(0, grid // 2 + 1, 300)]))
    vals, _ = spec.coefficients(freqs)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    mid = np.arange(grid, dtype=np.longdouble) + np.longdouble(0.5)
    phase = 2 * pi * np.outer(freqs.astype(np.longdouble), mid) / grid
    ld = masses.astype(np.longdouble)
    re, im = (np.cos(phase) * ld).sum(axis=1), -(np.sin(phase) * ld).sum(axis=1)
    err = np.hypot((vals.real - re).astype(float), (vals.imag - im).astype(float))
    assert np.all(err <= _U * np.abs(masses).sum()
                  * (8 * grid.bit_length() + 12))


def test_spectrum_grid_guard_fires_before_evaluation():
    def cont(x):
        raise AssertionError("CDF evaluated")

    nu = Measure((0.0, 1.0), cont, 1.0, cdf_rounding=0.0)
    f_max = MAX_GRID_CELLS // 512 + 1  # the smallest f_max over the limit
    with pytest.raises(QuadratureError,
                       match=f"f_max={f_max} .* {2 * MAX_GRID_CELLS}-cell"):
        spectrum(nu, f_max)
    with pytest.raises(QuadratureError):
        wiener_scan(nu, 1, f_max)
    with pytest.raises(QuadratureError,  # from the ceiling grid, at once
                       match=f"f_max={f_max} .* {2 * MAX_GRID_CELLS}-cell"):
        build_lambda(nu, K=1, J=2, N_max=f_max)
    with pytest.raises(AssertionError, match="CDF evaluated"):
        spectrum(nu, 1)  # a small grid does reach the CDF


def test_refined_grid_guard_fires_before_evaluation(lebesgue_unit_norm):
    coarse = spectrum(lebesgue_unit_norm, MAX_GRID_CELLS // 1024 + 1, 2)
    with pytest.raises(QuadratureError, match="above the"):
        coarse.refined(1024)


def test_refinement_below_two_and_negative_horizons_are_refused(
        lebesgue_unit_norm):
    nu = lebesgue_unit_norm
    # below refinement 2 the grid can hold fewer than 2 * f_max cells
    for call in (lambda: spectrum(nu, 5, 1),
                 lambda: spectrum(nu, 5).refined(1),
                 lambda: wiener_scan(nu, 1, 100, refinement=0),
                 lambda: build_lambda(nu, K=1, J=2, N_max=100, refinement=1)):
        with pytest.raises(ValueError, match="refinement must be at least 2"):
            call()
    with pytest.raises(ValueError, match="N_max must be nonnegative, got -1"):
        build_lambda(nu, K=1, J=2, N_max=-1)
    with pytest.raises(ValueError, match="N must be nonnegative, got -1"):
        wiener_scan(nu, 1, -1)


def test_spectrum_and_build_lambda_refuse_what_is_not_a_probability():
    off_by = Measure((0.0, 1.0), lambda x: (1.0 + 1e-6) * x, 1.0 + 1e-6,
                     cdf_rounding=0.0)
    elsewhere = Measure((0.0, 2.0), lambda x: 0.5 * x, 1.0, cdf_rounding=0.0)
    for nu in (off_by, elsewhere):
        for call in (lambda: spectrum(nu, 5),
                     lambda: build_lambda(nu, K=1, J=2, N_max=10)):
            with pytest.raises(ValueError, match="expected a probability"):
                call()
    rng = np.random.default_rng(8)
    atoms = zip(rng.uniform(0.0, TWO_PI, 200), rng.uniform(0.01, 5.0, 200))
    nu = normalize(build_measure(MeasureSpec.atomic(atoms, (0.0, TWO_PI))),
                   (0.5, 6.0))
    assert nu.atom_positions.size > 150 and nu.total_mass != 1.0
    assert spectrum(nu, 5).coefficients([0])[0][0] == pytest.approx(1.0)


def test_wiener_average_is_mean_of_wiener_scan(cantor40_norm):
    absv, errs, running = wiener_scan(cantor40_norm, -2, 300)
    assert absv.shape == errs.shape == running.shape == (301,)
    # the average over n = 0..300 is, within rounding, the mean
    assert running[-1] == pytest.approx(np.mean(absv**2), rel=1e-12)
    assert running[0] == absv[0] ** 2
    with pytest.raises(QuadratureError):  # bound pi 600 / 2048 > 0.5
        wiener_scan(cantor40_norm, 2, 300, refinement=2)
    with pytest.raises(ValueError):
        wiener_scan(cantor40_norm, 0, 300)


def spread_atoms(n):
    """0.5 Lebesgue + 0.5 spread evenly over n atoms, on [0, 1]."""
    atoms = MeasureSpec.atomic([((i + 0.5) / n, 1.0) for i in range(n)])
    return build_measure(MeasureSpec.mixture(
        [(0.5, MeasureSpec.lebesgue((0.0, 1.0))), (0.5 / n, atoms)]))


def test_atom_sum_peak_memory_does_not_grow_with_the_spectrum():
    # one phase matrix of 2,049 frequencies x 1,000 atoms peaks at 63 MiB
    nu = spread_atoms(1000)
    tracemalloc.start()
    try:
        wiener_scan(nu, 1, 2048, refinement=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("atoms, sizes", [
    (7, (4682, 4683, 4684)),  # 2,340-row slices, remainders of 2 to 4 rows
    (2000, (0, 1, 2, 11, 18, 1001)),  # 8-row slices
])
def test_atom_sum_slices_bitwise_equal_one_product(atoms, sizes):
    nu = spread_atoms(atoms)
    for n in sizes:
        freqs = 3 * np.arange(n)
        phase = np.exp(-2j * np.pi * np.outer(freqs.astype(float),
                                              nu.atom_positions))
        assert np.array_equal(_atom_sum(nu, freqs), phase @ nu.atom_masses)


def test_grid_cells_take_integers_past_int64():
    for f in (0, 1, 2, 3, 1000, 1024, 1025, 2**21, 2**21 + 1):
        for r in (2, 8, 100, 512):
            want = 1 << int(np.ceil(np.log2(max(r * max(1, f), 1024))))
            assert _grid_cells(f, r) == want
    assert _grid_cells(10**30, 512) == 1 << (512 * 10**30 - 1).bit_length()
    with pytest.raises(QuadratureError, match="-cell limit"):
        build_lambda(delta_measure(), K=3, J=3, N_max=10**30)


def test_wiener_scan_refuses_k_and_n_before_building_frequencies(
        lebesgue_unit_norm):
    nu = lebesgue_unit_norm
    for k in (MAX_GRID_CELLS + 1, -10**20):
        with pytest.raises(ValueError, match="k must be nonzero and at most"):
            wiener_scan(nu, k, 0)
    # N = 2^20 needs a 2^29-cell grid: refused before its 8 MB frequencies
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="-cell limit"):
            wiener_scan(nu, 1, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_lambda_refuses_its_pairs_before_allocating_them(
        lebesgue_unit_norm):
    # N_max = 0 leaves K unbounded by the grid, and at refinement 2 the grid
    # admits K N_max = 2^22 + 2^10 pairs: each refused before its pair arrays
    tracemalloc.start()
    try:
        for K, N_max in ((MAX_PAIRS + 1, 0), (10**13, 0), (2**10, 2**12)):
            with pytest.raises(ValueError, match="-pair limit"):
                build_lambda(lebesgue_unit_norm, K=K, J=2, N_max=N_max,
                             refinement=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_wiener_average_dirac():
    nu = delta_measure(0.123)
    for N in (10, 100):
        assert wiener_scan(nu, 1, N)[2][-1] == pytest.approx(1.0, abs=1e-12)


def test_wiener_average_lebesgue(lebesgue_unit_norm):
    for N in (9, 99):
        got = wiener_scan(lebesgue_unit_norm, 1, N)[2][-1]
        assert got == pytest.approx(1.0 / (N + 1), abs=1e-9)


def test_wiener_average_cantor_small(cantor40_norm):
    assert wiener_scan(cantor40_norm, 1, 5000)[2][-1] <= 0.02


def test_wiener_atomic_lower_bound():
    # mixture with atomic mass alpha: liminf of the average >= alpha^2
    spec = MeasureSpec.mixture([
        (0.5, MeasureSpec.lebesgue((0.0, 1.0))),
        (0.5, MeasureSpec.atomic([(1.0 / np.sqrt(2.0), 1.0)], (0.0, 1.0))),
    ])
    nu = normalize(build_measure(spec), (0.0, 1.0))
    alpha = 0.5
    for N in (500, 2000):
        assert wiener_scan(nu, 1, N)[2][-1] >= alpha**2 - 0.05


def test_lambda_jk_lebesgue(lebesgue_unit_norm):
    members = lambda_jk(lebesgue_unit_norm, j=4, k=2, N_max=100)
    assert list(members) == list(range(1, 101))  # n=0 excluded, nu_hat(0)=1
    lam = build_lambda(lebesgue_unit_norm, K=2, J=4, N_max=100)
    assert list(lam.members) == list(members)


def test_lambda_jk_cantor_density(cantor40_norm):
    members = lambda_jk(cantor40_norm, j=3, k=1, N_max=2000)
    assert members.size / 2001 >= 0.9


def test_lambda_jk_certification_monotone_in_refinement(cantor40_norm):
    # with K = 1 the index set is Lambda_{J,1}
    coarse = build_lambda(cantor40_norm, 1, 3, 500, refinement=64).members
    fine = build_lambda(cantor40_norm, 1, 3, 500, refinement=1024).members
    coarse, fine = set(coarse.tolist()), set(fine.tolist())
    assert coarse <= fine  # higher refinement never removes a certified member


def test_build_lambda_lebesgue_multiples(lebesgue_unit_norm):
    lam = build_lambda(lebesgue_unit_norm, K=5, J=5, N_max=300, m=3)
    assert list(lam.members) == list(range(3, 301, 3))


def test_build_lambda_rejects_atomic():
    # |nu_hat| = 1 at every frequency: no n is a member, and the index set
    # says why its M-set masses need not converge
    lam = build_lambda(delta_measure(), K=2, J=2, N_max=100)
    assert len(lam) == 0
    assert ("measure has 1 atom(s): mu(A_n) need not tend to tau mu(I)"
            in lam.warnings)


def test_build_lambda_cantor_density(cantor40_norm):
    lam = build_lambda(cantor40_norm, K=3, J=3, N_max=2000, m=1)
    assert lam.density >= 0.8
    # criterion 2 is decided by refinement 32, below the 512 ceiling
    assert [lv.refinement for lv in lam.levels] == [8, 16, 32]
    # members are a subset of every constituent Lambda_{j,k}
    sub = set(lambda_jk(cantor40_norm, 3, 2, 2000).tolist())
    assert set(lam.members.tolist()) <= sub


MIXTURE = MeasureSpec.mixture([(0.5, MeasureSpec.cantor(12)),
                               (0.5, MeasureSpec.lebesgue((0.0, 1.0)))])


@pytest.mark.parametrize("spec, kw", [
    (MeasureSpec.cantor(40), dict(K=3, J=3, N_max=2000)),  # criterion 2
    (MeasureSpec.cantor(40), dict(K=5, J=5, N_max=2000)),
    (MIXTURE, dict(K=3, J=3, N_max=500)),
    (MeasureSpec.lebesgue(), dict(K=5, J=5, N_max=300, m=3)),
    (MeasureSpec.cantor(40), dict(K=3, J=3, N_max=2000, refinement=24)),
    (MeasureSpec.cantor(40), dict(K=3, J=3, N_max=2000, refinement=4)),
], ids=["criterion2", "J5K5", "mixture", "lebesgue-m3", "ceiling24",
        "ceiling4"])
def test_build_lambda_members_match_single_level_oracle(spec, kw):
    nu = normalize(build_measure(spec), (0.0, 1.0))
    lam = build_lambda(nu, **kw)
    assert np.array_equal(lam.members, build_lambda_oracle(nu, **kw))
    ceiling = kw.get("refinement")
    if ceiling is not None:  # these two run to the ceiling: today's grid
        last = lam.levels[-1]
        assert last.refinement == ceiling
        assert last.grid_cells == _grid_cells(kw["K"] * kw["N_max"], ceiling)


def test_build_lambda_criterion2_evaluates_one_refined_pass(cantor40,
                                                            monkeypatch):
    nu = normalize(cantor40, (0.0, 1.0))  # its own, so cont can be counted
    points = []
    cont = nu.cont
    monkeypatch.setattr(nu, "cont",
                        lambda x: points.append(np.size(x)) or cont(x))
    build_lambda(nu, K=3, J=3, N_max=2000)
    # each point of the 2^18-cell grid once, not the 2^22-cell ceiling grid
    assert sum(points) == 2**18 + 1


@st.composite
def cantor_mixtures(draw):
    """A Cantor measure or a mixture of Cantor and Lebesgue ones on [0, 1]."""
    parts = draw(st.lists(st.one_of(
        st.integers(1, 40).map(MeasureSpec.cantor),
        st.just(MeasureSpec.lebesgue())), min_size=1, max_size=3))
    if len(parts) == 1 and parts[0].kind == "cantor":
        return parts[0]
    weights = draw(st.lists(st.floats(0.1, 4.0), min_size=len(parts),
                            max_size=len(parts)))
    return MeasureSpec.mixture(list(zip(weights, parts)))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(spec=cantor_mixtures(), K=st.integers(1, 3), J=st.integers(2, 5),
       m=st.integers(1, 4), N_max=st.integers(1, 200),
       ceiling=st.sampled_from([4, 16, 100, 256]))
def test_build_lambda_decisions_are_certified(spec, K, J, m, N_max, ceiling):
    # J >= 2: n = 0 has |nu_hat(0)| = 1 and a bound of rounding alone, so
    # at J = 1 only rounding would decide it
    nu = normalize(build_measure(spec), (0.0, 1.0))
    lam = build_lambda(nu, K, J, N_max, m, refinement=ceiling)
    oracle = build_lambda_oracle(nu, K, J, N_max, m, ceiling)
    assert set(oracle.tolist()) <= set(lam.members.tolist())

    want, r = [], min(START_REFINEMENT, ceiling)
    while True:
        want.append(r)
        if r >= ceiling:
            break
        r = min(2 * r, ceiling)
    visited = [lv.refinement for lv in lam.levels]
    assert visited == want[:len(visited)] and lam.levels[-1].undecided == 0
    candidates = np.arange(0, N_max + 1, m)
    assert sum(lv.decided_in for lv in lam.levels) == len(lam)
    assert sum(lv.decided_in + lv.decided_out
               for lv in lam.levels) == candidates.size

    bounds = [pair_bounds(nu, K, N_max, r) for r in visited]
    # a member has each pair (n, k) certified small at some visited level
    small = np.any([hi <= 1.0 / J for _, hi in bounds], axis=0)
    assert np.all(small[:, lam.members])
    # a rejected n has a pair certified large, or fails the ceiling test
    out = np.any([np.any(lo > 1.0 / J, axis=0) for lo, _ in bounds], axis=0)
    if visited[-1] == ceiling:
        out |= np.any(bounds[-1][1] > 1.0 / J, axis=0)
    rejected = np.setdiff1d(candidates, lam.members)
    assert np.all(out[rejected])


def old_rule_oracle(nu, K, J, N_max, m, refinement):
    """Members of the single-level test at the ceiling under the bound
    2 pi f / grid * (continuous mass), twice the midpoint term and
    without a rounding term."""
    ns = np.arange(N_max + 1)
    spec = spectrum(nu, K * N_max, refinement)
    grid = spec.cdf.size - 1
    keep = ns % m == 0
    for k in range(1, K + 1):
        vals, _ = spec.coefficients(k * ns)
        errs = 2.0 * np.pi * k * ns / grid * nu.cont_total
        keep &= np.abs(vals) + errs <= 1.0 / J
    return np.flatnonzero(keep)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(spec=cantor_mixtures(), K=st.integers(1, 3), J=st.integers(2, 5),
       m=st.integers(1, 4), N_max=st.integers(1, 200),
       ceiling=st.sampled_from([4, 16, 100, 256]))
def test_build_lambda_keeps_members_of_the_old_bound(spec, K, J, m, N_max,
                                                     ceiling):
    # the midpoint bound plus rounding is below the old bound at every
    # f >= 1, so no pair that the old bound certified is put out
    nu = normalize(build_measure(spec), (0.0, 1.0))
    lam = build_lambda(nu, K, J, N_max, m, refinement=ceiling)
    old = old_rule_oracle(nu, K, J, N_max, m, ceiling)
    assert set(old.tolist()) <= set(lam.members.tolist())


def test_index_set_compares_by_identity():
    # every frozen result type with an array field compares by identity
    params = CorrectorParams(0.0, 1.0, 1.0, 0.1, 10, 5)
    ns = np.array([1, 2])
    makers = [
        lambda: IndexSet([1, 2], 5, 0.3),
        lambda: layout(params),
        lambda: StepFunction((0.0, 1.0), [1.0, -1.0]),
        lambda: ConvergenceScan(ns, ns * 0.3, ns * 0.0, 0.3, 0.0),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert a in [a] and b not in [a]
