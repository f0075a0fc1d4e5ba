import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from menshov import assembly
from menshov import (MeasureSpec, PiecewiseLinearFn, QuadratureError,
                     StepFunction, build_lambda, build_measure, claim_run,
                     mset_masses, partial_sum_diagnostics, theorem_demo)

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


def test_claim_partition_splits_each_cell_into_kappa_equal_cells():
    phi = StepFunction((0.0, TWO_PI), [1.0, -2.0])
    res = claim_run(phi, cantor_full(), 40)
    assert (res.rho, res.kappa) == (2, 7)
    part = res.partition
    xs = np.linspace(0.0, TWO_PI, 2 * 7 + 1)
    assert np.array_equal(part.breakpoints, xs)
    assert np.array_equal(part.values, np.repeat(phi.values, 7))
    assert [(c.layout.c, c.layout.d) for c in res.cells] == list(
        zip(xs[:-1], xs[1:]))
    assert [c.gamma for c in res.cells] == part.values.tolist()


def test_claim_lebesgue_certified_minimal_parameters():
    phi = StepFunction((0.0, TWO_PI), [1.0, -0.5, 2.0, 0.25])
    mu = lebesgue_full()
    res = claim_run(phi, mu, 16)
    assert res.certified
    assert res.kappa == 1  # Lebesgue hits the union target at the first n
    assert res.mu_e / res.mu_total >= 1.0 - 7.0 / 16.0
    # Lebesgue mass of E has the closed form per cell:
    # (1 - 4/nu)(d - c) - (nu - 4) r delta with delta = (d-c)/(r nu^2)
    for c in res.cells:
        w = c.layout.d - c.layout.c
        expect = ((1.0 - 4.0 / 16.0) * w
                  - (16 - 4) * c.layout.r * c.layout.delta)
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
    phi = StepFunction((0.0, TWO_PI), [1.0, -1.0])
    res = claim_run(phi, cantor_full(), 16)
    assert [(c.layout.r, c.mass_inner, c.mass_e) for c in res.cells] == [
        (8, 0.375, 0.34159342447924246), (16, 0.375, 0.34737141927075754)]
    mu = cantor_full()  # criterion 8
    demo = theorem_demo(lambda x: x, mu, 0.05 * mu.total_mass, 0.5)
    # the exact level-40 CDF at each end of E's 110,591 intervals, summed
    # with math.fsum, gives 0.9637392035164903; the float loop that rounded
    # t *= 3 at every level gave 0.9637392035376706
    assert demo.claim.mu_e == 0.9637392035164902


def test_claim_cantor_certified():
    phi = StepFunction((0.0, TWO_PI), [1.0])
    res = claim_run(phi, cantor_full(), 16)
    assert res.certified
    assert res.mu_e >= (9.0 / 16.0) * res.mu_total
    # oracle: recompute mu(E) by summing interval masses over e_intervals
    mu = cantor_full()
    direct = sum(float(mu.interval_mass(a, b)) for a, b in res.e_intervals)
    assert res.mu_e == pytest.approx(direct, abs=1e-9)


def test_claim_mixture_certified():
    phi = StepFunction((0.0, TWO_PI), [0.5, -1.0])
    res = claim_run(phi, mixture_full(), 16)
    assert res.certified
    assert res.mu_e >= (9.0 / 16.0) * res.mu_total
    # the inner masses come from one call; each equals a call of its own
    mu = mixture_full()
    for c in res.cells:
        assert c.mass_inner == float(
            mu.interval_mass(c.layout.a_prime, c.layout.b_prime))


def test_claim_rejects_bad_inputs():
    phi = StepFunction((0.0, TWO_PI), [1.0])
    for nu in (8, 16.5, float("inf"), float("nan")):  # hypothesis nu > 8
        with pytest.raises(ValueError, match="nu must be an integer > 8"):
            claim_run(phi, lebesgue_full(), nu)
    atom = build_measure(MeasureSpec.mixture([
        (0.5, MeasureSpec.lebesgue((0.0, TWO_PI))),
        (0.5, MeasureSpec.atomic([(1.0, 1.0)], (0.0, TWO_PI))),
    ]))
    # an atom is no bad input: interval_mass counts it exactly
    res = claim_run(phi, atom, 16)
    assert res.certified and res.mu_total == pytest.approx(0.5 * TWO_PI + 0.5)


def e_piece_mass(mu, e_intervals):
    """Sum of mu over the closed pieces of E, which must be disjoint."""
    e = e_intervals[np.argsort(e_intervals[:, 0])]
    assert np.all(e[1:, 0] > e[:-1, 1])  # no atom is counted twice
    return float(np.sum(mu.interval_mass(e[:, 0], e[:, 1])))


def test_claim_counts_an_atom_on_a_layout_node_out_of_e():
    phi = StepFunction((0.0, TWO_PI), [1.0])
    lay = claim_run(phi, lebesgue_full(), 16).cells[0].layout
    # removed[5, 1] opens a kept piece and removed[7, 0] closes one
    nodes = [lay.removed[5, 1], lay.removed[7, 0]]
    mu = build_measure(MeasureSpec.mixture([
        (1.0, MeasureSpec.lebesgue((0.0, TWO_PI))),
        (1.0, MeasureSpec.atomic([(x, 1e-4) for x in nodes], (0.0, TWO_PI))),
    ]))
    cell = claim_run(phi, mu, 16).cells[0]
    assert np.array_equal(cell.layout.removed, lay.removed)
    direct = e_piece_mass(mu, cell.layout.e_intervals)
    # a removed interval shares each node with a kept piece and takes the
    # atom out of mass_e, which stays a lower bound of mu(E_0)
    assert cell.mass_e <= direct
    assert direct - cell.mass_e == pytest.approx(2e-4, rel=1e-6)


def test_theorem_demo_on_measures_with_atoms_leaves_less_than_eps():
    ratios = []  # mu([0, 2 pi] minus E) / eps of each certified draw

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(base=st.sampled_from([MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)),
                                 MeasureSpec.lebesgue((0.0, TWO_PI))]),
           weight=st.floats(0.01, 0.5),
           atoms=st.lists(st.tuples(
               st.one_of(st.sampled_from([0.0, TWO_PI]), st.floats(0.0, TWO_PI)),
               st.floats(0.05, 1.0)), min_size=1, max_size=3,
               unique_by=lambda atom: atom[0]))
    def check(base, weight, atoms):
        mu = build_measure(MeasureSpec.mixture([
            (1.0 - weight, base),
            (weight, MeasureSpec.atomic(atoms, (0.0, TWO_PI)))]))
        mu_total = float(mu.interval_mass(0.0, TWO_PI))
        eps = 0.05 * mu_total
        # uncapped, an uncertified draw walks kappa to 512
        demo = theorem_demo(lambda x: x, mu, eps, 0.5, kappa_cap=32)
        if not demo.claim.certified:
            return
        e = demo.claim.e_intervals
        ratios.append((mu_total - e_piece_mass(mu, e)) / eps)
        assert ratios[-1] < 1.0
        # g is the step value on every piece of E
        pts = e.ravel()
        assert np.array_equal(demo.g(pts), demo.claim.partition(pts))

    check()
    assert len(ratios) >= 5


@pytest.mark.parametrize("caps", [{"kappa_cap": -1}, {"kappa_cap": 0},
                                  {"r_cap": 0}])
def test_claim_and_demo_refuse_caps_below_one(monkeypatch, caps):
    def no_work(*args, **kwargs):
        raise AssertionError("claim_run built an index set")

    monkeypatch.setattr(assembly, "build_lambda", no_work)
    phi = StepFunction((0.0, TWO_PI), [1.0, -1.0])
    with pytest.raises(ValueError, match="kappa_cap and r_cap"):
        claim_run(phi, cantor_full(), 16, **caps)
    with pytest.raises(ValueError, match="kappa_cap and r_cap"):
        theorem_demo(phi, cantor_full(), 0.5, 0.5, **caps)


def test_claim_uncertified_on_tiny_caps():
    # caps too small to reach the targets: result is returned, flagged
    phi = StepFunction((0.0, TWO_PI), [1.0])
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
    phi = StepFunction((0.0, TWO_PI), [1.0] * 4)
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
    phi = StepFunction((0.0, TWO_PI), [1.0])
    res = claim_run(phi, cantor_full(), 20000, [10.0] * 4000, kappa_cap=100)
    search = res.diagnostics["kappa_search"]
    assert res.diagnostics["stage1_certified"] and res.kappa == 83
    assert len(search) == 78
    assert search[-1] == [83, res.union_inner_mass]


def test_claim_stage1_without_members_measures_kappa_one():
    # with kappa_cap = 1 the index set has no member in [rho, rho]: kappa
    # stays 1 and the union mass is measured there, not a sentinel
    mu = cantor_full()
    phi = StepFunction((0.0, TWO_PI), [1.0])
    res = claim_run(phi, mu, 16, kappa_cap=1)
    assert res.diagnostics["kappa_search"] == []
    assert not res.diagnostics["stage1_certified"] and not res.certified
    assert res.kappa == 1
    union_mass, = mset_masses(mu, (0.0, TWO_PI), [1], 2.0 / 16,
                              1.0 - 4.0 / 16)
    assert res.union_inner_mass == union_mass >= 0.0


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
    return StepFunction(domain, [float(f(x)) for x in mids])


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
    phi = StepFunction((0.0, TWO_PI), [1.0, 2.0])
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


def test_theorem_demo_refuses_eps_past_the_layout_limit():
    # 7 mu_total / eps overflows at eps = 5e-324; at 1e-300 it is 4.4e301,
    # where nu += 1 no longer moves 7 mu_total / nu, so the search for nu
    # never ended: both are refused before it, in a subprocess for the hang
    with pytest.raises(ValueError, match="eps=5e-324"):
        theorem_demo(np.sin, lebesgue_full(), eps=5e-324, uniform_gap=0.1)
    code = ("import numpy as np; from menshov import *; "
            "mu = build_measure(MeasureSpec.lebesgue((0.0, 2 * np.pi))); "
            "theorem_demo(np.sin, mu, 1e-300, 0.1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert "ValueError: eps=1e-300 needs nu" in proc.stderr, proc.stderr


def test_theorem_demo_criterion_8_peak_memory():
    # cells keep their layout, not their psi: the 32 psi of this demo held
    # 8 MB of the 20.4 MB peak when each cell kept one
    mu = cantor_full()
    tracemalloc.start()
    try:
        demo = theorem_demo(lambda x: x, mu, 0.05 * mu.total_mass, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(demo.claim.cells) == 32
    assert peak < 16e6


def test_partial_sum_diagnostics_decreasing():
    f = lambda x: np.sin(x)
    demo = theorem_demo(f, lebesgue_full(), eps=1.0, uniform_gap=0.3)
    diag = partial_sum_diagnostics(demo.g, [4, 16, 64, 256])
    errs = [e for _, e in diag]
    assert errs[-1] < errs[0]
    assert all(e >= 0 for e in errs)
    # g is piecewise linear and continuous periodically: O(1/N) decay
    assert errs[-1] < 0.5


def fourier_partial_sums(coeffs, x):
    """Dense oracle: partial sums S_N at points x for every N = 0..len-1.

    coeffs are c_0..c_Nmax of a real function; S_N = c_0 + 2 Re sum c_n e^{inx}.
    Returns an array of shape (Nmax+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    n = np.arange(1, len(coeffs))
    modes = 2.0 * np.real(coeffs[1:, None]
                          * np.exp(1j * n[:, None] * x[None, :]))
    sums = np.vstack([np.zeros_like(x), np.cumsum(modes, axis=0)])
    return np.real(coeffs[0]) + sums


def dense_partial_sum_errors(g, N_list):
    """sup |S_N g - g| on the 2048-point grid, from the dense oracle taken
    on blocks of 256 points, so no (Nmax+1) x 2048 matrix is built."""
    x = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    coeffs = g.fourier_coefficients(max(N_list))
    errs = np.zeros(max(N_list) + 1)
    for i in range(0, x.size, 256):
        sums = fourier_partial_sums(coeffs, x[i:i + 256])
        errs = np.maximum(errs, np.abs(sums - g(x[i:i + 256])).max(axis=1))
    return [(N, float(errs[N])) for N in N_list]


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(xs=st.lists(st.floats(0.0, TWO_PI), min_size=3, max_size=10,
                   unique=True),
       ys=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
       small=st.lists(st.integers(0, 2047), max_size=3),
       wrapped=st.integers(2048, 2300))
def test_partial_sum_diagnostics_match_dense_oracle(xs, ys, small, wrapped):
    # g is 0 at both ends of its support inside [0, 2 pi]; N >= 2048 wraps
    # the fold past the grid
    xs = np.sort(xs)
    assume(np.all(np.diff(xs) > 1e-6))
    g = PiecewiseLinearFn(xs, [0.0, *ys[:xs.size - 2], 0.0])
    N_list = [*small, wrapped]
    got = partial_sum_diagnostics(g, N_list)
    want = dense_partial_sum_errors(g, N_list)
    assert [N for N, _ in got] == N_list
    assert max(abs(a - b) for (_, a), (_, b) in zip(got, want)) <= 1e-12


def test_partial_sum_diagnostics_memory_is_linear_in_n():
    # the dense (N + 1) x 2048 matrix of the criterion-8 g at N = 4096
    # peaked at 269 MB
    mu = cantor_full()
    g = theorem_demo(lambda x: x, mu, 0.05 * mu.total_mass, 0.5).g
    tracemalloc.start()
    try:
        (N, err), = partial_sum_diagnostics(g, [4096])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert N == 4096 and 0.0 < err < 0.5
    assert peak < 16e6


def test_partial_sum_diagnostics_refuses_g_outside_0_2pi():
    # S_N g tends to g's 2 pi-periodization, not to g
    for xs in ([-1.0, 1.0, 3.0], [1.0, 4.0, 7.0]):
        g = PiecewiseLinearFn(xs, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="outside"):
            partial_sum_diagnostics(g, [8])
    g = PiecewiseLinearFn([0.0, 1.0, TWO_PI], [0.0, 1.0, 0.0])
    assert len(partial_sum_diagnostics(g, [8])) == 1


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
