import math

import numpy as np
import pytest

from menshov import (AtomicMeasureError, MeasureSpec, MSetSpec,
                     QuadratureError, StepFunction, build_lambda,
                     build_measure, claim_run, mset_masses,
                     partial_sum_diagnostics, resample_equal, subdivide,
                     theorem_demo)
from menshov import assembly

TWO_PI = 2.0 * np.pi


def lebesgue_full():
    return build_measure(MeasureSpec.lebesgue((0.0, TWO_PI)))


def cantor_full():
    return build_measure(MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)))


def mixture_full():
    return build_measure(MeasureSpec.mixture([
        (0.6, MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI))),
        (0.4, MeasureSpec.lebesgue((0.0, TWO_PI))),
    ]))


def test_resample_equal_passthrough_and_refinement():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0, 2.0])
    same, shifts = resample_equal(phi)
    assert same is phi and shifts == []
    # breakpoints at thirds and halves commensurate with a sixth grid
    uneq = StepFunction(np.array([0.0, TWO_PI / 3.0, TWO_PI / 2.0, TWO_PI]),
                        np.array([1.0, 5.0, -2.0]))
    eq, shifts = resample_equal(uneq)
    assert shifts == []
    assert eq.is_equal_length()
    assert eq.num_cells == 6
    for x in (0.1, 2.0, 2.5, 4.0, 6.0):
        assert eq(x) == uneq(x)


def test_resample_equal_incommensurate_reports_shifts(monkeypatch):
    monkeypatch.setattr(assembly, "RESAMPLE_MAX_CELLS", 64)
    uneq = StepFunction(np.array([0.0, 1.0, TWO_PI]), np.array([3.0, 4.0]))
    eq, shifts = resample_equal(uneq)
    assert eq.num_cells == 64
    assert len(shifts) == 1
    # values preserved away from the shifted boundary
    assert eq(0.5) == 3.0 and eq(3.0) == 4.0


def test_subdivide_repeats_values():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0, -2.0])
    fine = subdivide(phi, 3)
    assert fine.num_cells == 6
    assert list(fine.values) == [1.0, 1.0, 1.0, -2.0, -2.0, -2.0]
    assert subdivide(phi, 1) is phi
    with pytest.raises(ValueError):
        subdivide(phi, 0)


def test_claim_lebesgue_certified_minimal_parameters():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0, -0.5, 2.0, 0.25])
    mu = lebesgue_full()
    res = claim_run(phi, mu, 16)
    assert res.certified
    assert res.kappa == 1  # Lebesgue hits the union target at the first n
    assert res.mu_e / res.mu_total >= 1.0 - 7.0 / 16.0
    # Lebesgue mass of E has the closed form per cell:
    # (1 - 4/nu)(d - c) - (nu - 4) r delta with delta = (d-c)/(r nu^2)
    for c in res.cells:
        w = c.cell[1] - c.cell[0]
        expect = (1.0 - 4.0 / 16.0) * w - (16 - 4) * c.r * c.layout.delta
        assert c.mass_e == pytest.approx(expect, abs=1e-9)
        # both masses are measured on the layout the cell keeps
        lay = c.layout
        assert c.mass_inner == float(mu.interval_mass(lay.a_prime,
                                                      lay.b_prime))
        assert c.mass_e == c.mass_inner - np.sum(
            mu.interval_mass(*lay.removed.T))
    assert all(all(c.checks.values()) for c in res.cells)


def test_claim_and_demo_masses_match_frozen_values():
    # values of the earlier stage 2, which measured a', b' and the removed
    # intervals on a second encoding of the layout; these did not move
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0, -1.0])
    res = claim_run(phi, cantor_full(), 16)
    assert [(c.r, c.mass_inner, c.mass_e) for c in res.cells] == [
        (8, 0.375, 0.34159342447924246), (16, 0.375, 0.34737141927075754)]
    mu = cantor_full()  # criterion 8
    demo = theorem_demo(lambda x: x, mu, 0.05 * mu.total_mass, 0.5)
    assert demo.claim.mu_e == 0.9637392035376706


def test_claim_cantor_certified():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0])
    res = claim_run(phi, cantor_full(), 16)
    assert res.certified
    assert res.mu_e >= (9.0 / 16.0) * res.mu_total
    # oracle: recompute mu(E) by summing interval masses over e_intervals
    mu = cantor_full()
    direct = sum(float(mu.interval_mass(a, b)) for a, b in res.e_intervals)
    assert res.mu_e == pytest.approx(direct, abs=1e-9)


def test_claim_mixture_certified():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [0.5, -1.0])
    res = claim_run(phi, mixture_full(), 16)
    assert res.certified
    assert res.mu_e >= (9.0 / 16.0) * res.mu_total
    # the inner masses come from one call; each equals a call of its own
    mu = mixture_full()
    for c in res.cells:
        assert c.mass_inner == float(
            mu.interval_mass(c.layout.a_prime, c.layout.b_prime))


def test_claim_rejects_bad_inputs():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0])
    with pytest.raises(ValueError):
        claim_run(phi, lebesgue_full(), 8)  # hypothesis nu > 8
    atom = build_measure(MeasureSpec.mixture([
        (0.5, MeasureSpec.lebesgue((0.0, TWO_PI))),
        (0.5, MeasureSpec.atomic([(1.0, 1.0)], (0.0, TWO_PI))),
    ]))
    with pytest.raises(AtomicMeasureError):
        claim_run(phi, atom, 16)


def test_claim_uncertified_on_tiny_caps():
    # caps too small to reach the targets: result is returned, flagged
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0])
    res = claim_run(phi, cantor_full(), 16, r_cap=1, kappa_cap=1)
    assert isinstance(res.certified, bool)
    assert res.mu_e <= res.mu_total
    if not res.certified:
        assert not res.diagnostics["stage1_certified"] or \
            not all(c.cell_certified for c in res.cells)


# kappa_search of the Cantor, nu = 400, four-cell claim below, frozen from
# the earlier one-mass-per-n search
STAGE1_SEARCH = [
    [1, 0.943359375], [2, 0.96484375], [3, 0.943359375], [4, 0.9775390625],
    [5, 0.9609375], [6, 0.96484375], [7, 0.958984375], [8, 0.984375],
    [9, 0.943359375], [10, 0.9443359375], [11, 0.9873046875],
    [12, 0.9775390625], [13, 0.97265625], [14, 0.9754638671875],
    [15, 0.9609375], [16, 0.9814338684082031], [17, 0.9898319244384766],
]


def test_claim_stage1_walks_horizons(monkeypatch):
    import menshov.assembly as assembly
    horizons = []

    def spy(nu, **kw):
        horizons.append(kw["N_max"])
        return build_lambda(nu, **kw)

    monkeypatch.setattr(assembly, "build_lambda", spy)
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0] * 4)
    res = claim_run(phi, cantor_full(), 400, [10.0] * 100)
    # union target 1 - 5/400 is first reached at n = 68, past horizon 64
    assert horizons == [64, 128]
    assert res.diagnostics["stage1_certified"] and res.kappa == 17
    assert res.diagnostics["kappa_search"] == STAGE1_SEARCH
    assert res.union_inner_mass == STAGE1_SEARCH[-1][1]
    # with kappa capped at 8 no mass reaches the target: the first
    # maximum of the tried prefix is kept, uncertified
    capped = claim_run(phi, cantor_full(), 400, [10.0] * 100, kappa_cap=8)
    assert not capped.diagnostics["stage1_certified"]
    assert capped.diagnostics["kappa_search"] == STAGE1_SEARCH[:8]
    assert (capped.kappa, capped.union_inner_mass) == (8, 0.984375)


def test_claim_reports_the_full_kappa_search():
    # eps 10 gives r_min = 1; the union target 1 - 5/20000 is first met at
    # kappa = 83, the 78th member tried, past the 64 entries once reported
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0])
    res = claim_run(phi, cantor_full(), 20000, [10.0] * 4000, kappa_cap=100)
    search = res.diagnostics["kappa_search"]
    assert res.diagnostics["stage1_certified"] and res.kappa == 83
    assert len(search) == 78
    assert search[-1] == [83, res.union_inner_mass]


def test_claim_stage1_without_members_measures_kappa_one():
    # with kappa_cap = 1 the index set has no member in [rho, rho]: kappa
    # stays 1 and the union mass is measured there, not a sentinel
    mu = cantor_full()
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0])
    res = claim_run(phi, mu, 16, kappa_cap=1)
    assert res.diagnostics["kappa_search"] == []
    assert not res.diagnostics["stage1_certified"] and not res.certified
    spec = MSetSpec((0.0, TWO_PI), 1, 2.0 / 16, 1.0 - 4.0 / 16)
    assert res.kappa == 1
    assert res.union_inner_mass == mset_masses(mu, [spec])[0] >= 0.0


def r_schedule_loop(r_min, r_cap):
    """Step-by-step r schedule: reference for assembly._r_schedule."""
    out, r = [], r_min
    while r <= r_cap and len(out) < 8:
        out.append(r)
        r += 1
    while r <= r_cap:
        out.append(r)
        r *= 2
    if out and out[-1] != r_cap and r_min <= r_cap:
        out.append(r_cap)
    return out


def test_r_schedule_matches_step_loop():
    from menshov.assembly import _r_schedule
    for r_min in range(1, 40):
        for r_cap in range(0, 300):
            assert _r_schedule(r_min, r_cap) == r_schedule_loop(r_min, r_cap)
    assert _r_schedule(3, 40) == [3, 4, 5, 6, 7, 8, 9, 10, 11, 22, 40]
    assert _r_schedule(9, 2) == []


def step_approximation_loop(f, domain, uniform_gap):
    """Oscillation per rho from np.array_split cells, one rho at a time;
    None when no rho up to STEP_MAX_CELLS meets the gap."""
    from menshov.assembly import STEP_MAX_CELLS
    lo, hi = domain
    grid = np.linspace(lo, hi, 16 * STEP_MAX_CELLS + 1)
    fx = np.asarray([float(f(x)) for x in grid])
    rho = 1
    while rho <= STEP_MAX_CELLS:
        cells = np.array_split(np.arange(grid.size - 1), rho)
        osc = max(np.ptp(fx[idx[0]:idx[-1] + 1]) for idx in cells)
        if osc <= uniform_gap:
            break
        rho *= 2
    else:
        return None
    xs = np.linspace(lo, hi, rho + 1)
    mids = (xs[:-1] + xs[1:]) / 2.0
    return StepFunction(xs, [float(f(x)) for x in mids])


def zero(x):
    """A constant f: accepts arrays as it stands, its result is broadcast."""
    return 0.0


@pytest.mark.parametrize("f, gap", [
    (lambda x: math.sin(x) + 0.3 * math.cos(2.0 * x), 0.2),
    (lambda x: math.sin(x), 1e-3),  # needs rho past the cap
    (lambda x: math.exp(-x) * math.cos(7.0 * x), 0.05),
    (lambda x: 1.0 if x < math.pi else -1.0, 1e-9),
    (lambda x: float(int(4.0 * x / math.pi)), 0.5),
    (lambda x: 2.0 if 1.0 <= x <= 1.3 else 0.0, 0.1),  # unaligned: past it
    (lambda x: math.sin(50.0 * x), 1e-6),  # never settles: past it
    (zero, 0.25),  # passed unwrapped
])
def test_step_approximation_matches_array_split_loop(f, gap):
    from menshov.assembly import _step_approximation
    # f_array takes arrays; the oracle calls the scalar f point by point
    f_array = f if f is zero else np.vectorize(f, otypes=[float])
    want = step_approximation_loop(f, (0.0, TWO_PI), gap)
    if want is None:  # no step function up to the cap: refused, not clamped
        with pytest.raises(QuadratureError, match=f"uniform_gap={gap!r}"):
            _step_approximation(f_array, (0.0, TWO_PI), gap)
        return
    got = _step_approximation(f_array, (0.0, TWO_PI), gap)
    assert np.array_equal(got.breakpoints, want.breakpoints)
    assert np.array_equal(got.values, want.values)


def test_claim_json_dict_is_serializable():
    import json
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0, 2.0])
    res = claim_run(phi, lebesgue_full(), 16)
    blob = json.dumps(res.to_json_dict())
    back = json.loads(blob)
    assert back["nu"] == 16 and back["certified"] is True
    assert len(back["cells"]) == res.rho * res.kappa


def test_theorem_demo_smooth_function():
    f = lambda x: np.sin(x) + 0.3 * np.cos(2 * x)
    demo = theorem_demo(f, lebesgue_full(), eps=0.5, uniform_gap=0.2)
    assert demo.below_eps
    assert demo.exceptional_mass < 0.5
    assert demo.claim.certified
    # g matches the step values on E, so |f - g| <= gap there
    assert demo.sup_gap_on_e <= demo.uniform_gap + 1e-9
    # nu is the smallest admissible value
    assert 7.0 * TWO_PI / demo.nu < 0.5
    assert 7.0 * TWO_PI / (demo.nu - 1) >= 0.5


def test_theorem_demo_step_function_exactness():
    # f already a step function: g = f on E up to machine precision.
    # Small total mass keeps nu at 9, so the run stays light.
    phi_vals = [1.0, -1.0]
    f = lambda x: np.where(x < np.pi, phi_vals[0], phi_vals[1])
    small_cantor = build_measure(MeasureSpec.cantor(40, 0.1, (0.0, TWO_PI)))
    demo = theorem_demo(f, small_cantor, eps=0.5, uniform_gap=1e-9)
    assert demo.sup_gap_on_e <= 1e-9
    assert demo.below_eps


def test_theorem_demo_sup_gap_matches_pointwise_oracle():
    # math.sin rejects arrays, so f is callable on scalars only and
    # theorem_demo gets it vectorized; the oracle calls it point by point
    f = lambda x: math.sin(x) + 0.3 * math.cos(2.0 * x)
    demo = theorem_demo(np.vectorize(f, otypes=[float]), lebesgue_full(),
                        eps=0.5, uniform_gap=0.2)
    oracle = 0.0
    for c in demo.claim.cells:
        for a, b in c.layout.e_intervals:
            for x in (a, (a + b) / 2.0, b):
                oracle = max(oracle, abs(float(f(x)) - float(demo.g(x))))
    assert oracle > 0.0
    assert demo.sup_gap_on_e == oracle


def test_theorem_demo_input_validation():
    with pytest.raises(ValueError):
        theorem_demo(np.sin, lebesgue_full(), eps=-1.0, uniform_gap=0.1)
    with pytest.raises(ValueError):
        theorem_demo(np.sin, lebesgue_full(), eps=0.5, uniform_gap=0.0)


def test_partial_sum_diagnostics_decreasing():
    f = lambda x: np.sin(x)
    demo = theorem_demo(f, lebesgue_full(), eps=1.0, uniform_gap=0.3)
    diag = partial_sum_diagnostics(demo.g, [4, 16, 64, 256])
    errs = [e for _, e in diag]
    assert errs[-1] < errs[0]
    assert all(e >= 0 for e in errs)
    # g is piecewise linear and continuous periodically: O(1/N) decay
    assert errs[-1] < 0.5


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double here")
def test_fourier_coefficients_of_demo_g_match_long_double_reference():
    # the criterion-8 g has short junction segments, where the antiderivative
    # formula's b/s^2 terms cancel; evaluated in long double they do not
    mu = cantor_full()
    g = theorem_demo(lambda x: x, mu, 0.05 * mu.total_mass, 0.5).g
    N, L = 200, np.longdouble
    x0, x1 = g.xs[:-1].astype(L), g.xs[1:].astype(L)
    y0, y1 = g.ys[:-1].astype(L), g.ys[1:].astype(L)
    slope = (y1 - y0) / (x1 - x0)
    s = (-1j * np.arange(1, N + 1)).astype(np.clongdouble)[:, None]
    # antiderivative of (a + b t) e^{s t} is e^{s t} ((a + b t)/s - b/s^2)
    ref = (np.exp(s * x1) * (y1 / s - slope / s**2)
           - np.exp(s * x0) * (y0 / s - slope / s**2)).sum(axis=1)
    ref = np.concatenate([[np.sum((x1 - x0) * (y0 + y1) / 2)], ref])
    ref /= 8 * np.arctan(L(1))
    assert np.max(np.abs(g.fourier_coefficients(N) - ref)) <= 1e-14
