import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menshov import (AtomicMeasureError, ConvergenceScan, CorrectorParams,
                     IndexSet, Measure, MeasureSpec, QuadratureError,
                     StepFunction, build_lambda, build_measure, layout,
                     normalize, spectrum, wiener_average, wiener_scan)
from menshov.fourier import MAX_GRID_CELLS, START_REFINEMENT, _grid_cells
from conftest import TWO_PI, cantor_coefficient_oracle


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
    n = 0..N_max, each row from a fresh pass on the grid k * N_max needs."""
    ns = np.arange(N_max + 1)
    lo, hi = [], []
    for k in range(1, K + 1):
        vals, errs = spectrum(nu, k * N_max, refinement).coefficients(k * ns)
        lo.append(np.abs(vals) - errs)
        hi.append(np.abs(vals) + errs)
    return np.array(lo), np.array(hi)


def build_lambda_oracle(nu, K, J, N_max, m=1, refinement=512):
    """Members of the single-level build_lambda that coarse-to-fine
    replaced: every multiple of m tested on the ceiling grids alone."""
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
        assert err == 0.0


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
    # build_lambda reads every k from one pass at K*N, refined level by
    # level; its members rest on each read being bitwise the coefficients
    # of a pass at k*N, and on a refined CDF being bitwise a fresh pass
    mu = build_measure(spec)
    nu = normalize(mu, mu.domain)
    K, N = 3, 700
    ns = np.arange(N + 1)
    fine = spectrum(nu, K * N, refinement=64)
    for k in range(1, K + 1):
        got = fine.coefficients(k * ns)
        fresh = spectrum(nu, k * N, refinement=64).coefficients(k * ns)
        assert np.array_equal(got[0], fresh[0])
        assert np.array_equal(got[1], fresh[1])
    coarse = spectrum(nu, K * N, refinement=8)
    for r in (16, 64, 100):  # one doubling, two, and a non-power-of-two
        refined = coarse.refined(r)
        assert refined.refinement == r
        assert np.array_equal(refined.cdf, spectrum(nu, K * N, r).cdf)


def test_spectrum_grid_guard_fires_before_evaluation():
    def cont(x):
        raise AssertionError("CDF evaluated")

    nu = Measure((0.0, 1.0), cont, 1.0)
    f_max = MAX_GRID_CELLS // 512 + 1  # the smallest f_max over the limit
    with pytest.raises(QuadratureError,
                       match=f"f_max={f_max} .* {2 * MAX_GRID_CELLS}-cell"):
        spectrum(nu, f_max)
    with pytest.raises(QuadratureError):
        wiener_average(nu, 1, f_max)
    with pytest.raises(QuadratureError,  # from the ceiling grid, at once
                       match=f"f_max={f_max} .* {2 * MAX_GRID_CELLS}-cell"):
        build_lambda(nu, K=1, J=2, N_max=f_max)
    with pytest.raises(AssertionError, match="CDF evaluated"):
        spectrum(nu, 1)  # a small grid does reach the CDF


def test_refined_grid_guard_fires_before_evaluation(lebesgue_unit_norm):
    coarse = spectrum(lebesgue_unit_norm, MAX_GRID_CELLS // 1024 + 1, 1)
    with pytest.raises(QuadratureError, match="above the"):
        coarse.refined(1024)


def test_wiener_average_is_mean_of_wiener_scan(cantor40_norm):
    absv, errs, running = wiener_scan(cantor40_norm, -2, 300)
    assert absv.shape == errs.shape == running.shape == (301,)
    assert wiener_average(cantor40_norm, -2, 300) == float(np.mean(absv**2))
    assert running[-1] == pytest.approx(np.mean(absv**2), rel=1e-12)
    assert running[0] == absv[0] ** 2
    with pytest.raises(QuadratureError):  # bound 2 pi 600 / 4096 > 0.5
        wiener_scan(cantor40_norm, 2, 300, refinement=4)
    with pytest.raises(ValueError):
        wiener_scan(cantor40_norm, 0, 300)


def test_wiener_average_dirac():
    nu = delta_measure(0.123)
    for N in (10, 100):
        assert wiener_average(nu, 1, N) == pytest.approx(1.0, abs=1e-12)


def test_wiener_average_lebesgue(lebesgue_unit_norm):
    for N in (9, 99):
        got = wiener_average(lebesgue_unit_norm, 1, N)
        assert got == pytest.approx(1.0 / (N + 1), abs=1e-9)


def test_wiener_average_cantor_small(cantor40_norm):
    assert wiener_average(cantor40_norm, 1, 5000) <= 0.02


def test_wiener_atomic_lower_bound():
    # mixture with atomic mass alpha: liminf of the average >= alpha^2
    spec = MeasureSpec.mixture([
        (0.5, MeasureSpec.lebesgue((0.0, 1.0))),
        (0.5, MeasureSpec.atomic([(1.0 / np.sqrt(2.0), 1.0)], (0.0, 1.0))),
    ])
    nu = normalize(build_measure(spec), (0.0, 1.0))
    alpha = 0.5
    for N in (500, 2000):
        assert wiener_average(nu, 1, N) >= alpha**2 - 0.05


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
    coarse = set(build_lambda(cantor40_norm, 1, 3, 500, refinement=64))
    fine = set(build_lambda(cantor40_norm, 1, 3, 500, refinement=1024))
    assert coarse <= fine  # higher refinement never removes a certified member


def test_build_lambda_lebesgue_multiples(lebesgue_unit_norm):
    lam = build_lambda(lebesgue_unit_norm, K=5, J=5, N_max=300, m=3)
    assert list(lam.members) == list(range(3, 301, 3))


def test_build_lambda_rejects_atomic():
    with pytest.raises(AtomicMeasureError):
        build_lambda(delta_measure(), K=2, J=2, N_max=100)


def test_build_lambda_cantor_density(cantor40_norm):
    lam = build_lambda(cantor40_norm, K=3, J=3, N_max=2000, m=1)
    assert lam.density >= 0.8
    # criterion 2 is decided by refinement 128, below the 512 ceiling
    assert [lv.refinement for lv in lam.levels] == [8, 16, 32, 64, 128]
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
    (MeasureSpec.cantor(40), dict(K=3, J=3, N_max=2000, refinement=100)),
    (MeasureSpec.cantor(40), dict(K=3, J=3, N_max=2000, refinement=4)),
], ids=["criterion2", "J5K5", "mixture", "lebesgue-m3", "ceiling100",
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
    # each point of the 2^20-cell grid once, not the 2^22-cell ceiling grid
    assert sum(points) == 2**20 + 1


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
    # J >= 2: n = 0 has |nu_hat(0)| = 1 and a zero bound, so at J = 1 only
    # rounding would decide it
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


def test_index_set_compares_by_identity():
    # every frozen result type with an array field compares by identity
    params = CorrectorParams(0.0, 1.0, 1.0, 0.1, 10, 5)
    ns = np.array([1, 2])
    makers = [
        lambda: IndexSet([1, 2], 5, 0.3),
        lambda: layout(params),
        lambda: StepFunction([0.0, 0.5, 1.0], [1.0, -1.0]),
        lambda: ConvergenceScan(ns, ns * 0.3, ns * 0.0, 0.3, 0.0, 2),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert a in [a] and b not in [a]
