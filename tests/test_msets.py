import os
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import menshov.measures as measures
from menshov import (DomainError, Measure, MeasureSpec, MSetSpec,
                     build_lambda, build_measure, msets, mset_masses,
                     normalize, proposition_scan, pushforward_arc_mass)
from conftest import FIVE_KINDS

TWO_PI = 2.0 * np.pi


@contextmanager
def capped_groups(cap):
    """mset_masses cuts groups of at most cap intervals."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msets, "MAX_BATCH_INTERVALS", cap)
        yield


def test_mset_intervals_direct_substitution():
    iv = np.column_stack(msets._interval_ends((0.0, 1.0), [2], 0.25, 0.5))
    assert iv == pytest.approx(np.array([[0.125, 0.375], [0.625, 0.875]]))
    iv1 = np.column_stack(msets._interval_ends((0.0, 1.0), [1], 0.1, 0.8))
    assert iv1 == pytest.approx(np.array([[0.1, 0.9]]))
    iv2 = np.column_stack(msets._interval_ends((2.0, 4.0), [4], 0.5, 0.25))
    assert iv2[0] == pytest.approx([2.25, 2.375])


def test_mset_intervals_disjoint_and_total_length():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0, 3)
        b = a + rng.uniform(0.1, 3)
        n = int(rng.integers(1, 500))
        s = rng.uniform(0, 0.7)
        t = rng.uniform(0.01, 1 - s - 0.001)
        iv = np.column_stack(msets._interval_ends((a, b), [n], s, t))
        assert np.all(iv[1:, 0] >= iv[:-1, 1])  # disjoint
        assert iv[0, 0] >= a and iv[-1, 1] <= b + 1e-12
        assert np.sum(iv[:, 1] - iv[:, 0]) == pytest.approx(t * (b - a), abs=1e-12)


def test_mset_mass_lebesgue_exact(lebesgue_2pi):
    mass, = mset_masses(lebesgue_2pi, (1.0, 4.0), [17], 0.3, 0.25)
    assert mass == pytest.approx(0.25 * 3.0, abs=1e-12)


def test_mset_mass_cantor_self_similarity(cantor40):
    # x -> 27 x mod 1 preserves the Cantor measure: mass approximates
    # mu_C([sigma, sigma + tau]) = 1/2
    mass, = mset_masses(cantor40, (0.0, 1.0), [27], 1e-9, 0.5)
    assert mass == pytest.approx(0.5, abs=1e-3)


def test_mset_mass_atom_inside():
    m = build_measure(MeasureSpec.atomic([(0.5, 1.0)], (0.0, 1.0)))
    assert mset_masses(m, (0.0, 1.0), [1], 0.25, 0.5)[0] == 1.0


def test_mset_mass_monotone_in_tau(cantor40):
    masses = [mset_masses(cantor40, (0.0, 1.0), [9], 0.2, t)[0]
              for t in (0.1, 0.3, 0.5, 0.7)]
    assert all(m2 >= m1 - 1e-15 for m1, m2 in zip(masses, masses[1:]))


# several 100-interval groups, and one A_n larger than a group
BATCHED_NS = [1, 37, 99, 100, 3, 250, 64, 64, 1, 80, 7]


def batched_specs():
    """Random (I, sigma, tau) families, each measured over BATCHED_NS."""
    rng = np.random.default_rng(5)
    families = []
    for _ in range(4):
        a = rng.uniform(0.0, 0.4)
        s = rng.uniform(0.0, 0.6)
        families.append(((a, rng.uniform(a + 0.2, 1.0)), s,
                         rng.uniform(0.05, 1.0 - s)))
    return families


@pytest.mark.parametrize("spec", FIVE_KINDS, ids=lambda s: s.kind)
def test_mset_masses_bitwise_equal_per_spec_oracle(spec):
    mu = build_measure(spec)
    for interval, sigma, tau in batched_specs():
        oracle = [np.sum(mu.interval_mass(*msets._interval_ends(
            interval, [n], sigma, tau))) for n in BATCHED_NS]
        with capped_groups(100):
            assert np.array_equal(
                mset_masses(mu, interval, BATCHED_NS, sigma, tau), oracle)


def _intervals_oracle(spec):
    """The interval ends of spec, computed one spec at a time."""
    a, b = spec.interval
    w = (b - a) / spec.n
    k = np.arange(spec.n)
    return a + (k + spec.sigma) * w, a + (k + spec.sigma + spec.tau) * w


def test_interval_ends_bitwise_equal_per_spec_oracle(monkeypatch):
    mu = build_measure(MeasureSpec.lebesgue((0.0, 1.0)))
    seen = []
    interval_mass = mu.interval_mass

    def spy(a, b):
        seen.append((a, b))
        return interval_mass(a, b)

    monkeypatch.setattr(mu, "interval_mass", spy)
    for interval, sigma, tau in batched_specs():
        seen.clear()
        with capped_groups(100):
            mset_masses(mu, interval, BATCHED_NS, sigma, tau)
        specs = [MSetSpec(interval, n, sigma, tau) for n in BATCHED_NS]
        want = [_intervals_oracle(s) for s in specs]
        for col in (0, 1):
            got = np.concatenate([ends[col] for ends in seen])
            assert np.array_equal(got.view(np.int64),
                                  np.concatenate([w[col] for w in want])
                                  .view(np.int64))
            for spec, w in zip(specs, want):
                got = msets._interval_ends(spec.interval, [spec.n],
                                           spec.sigma, spec.tau)[col]
                assert np.array_equal(got.view(np.int64),
                                      w[col].view(np.int64))


def test_mset_masses_cdf_calls_stay_within_a_batch(monkeypatch):
    mu = build_measure(MeasureSpec.cantor(40))
    sizes = []
    cont = mu.cont

    def spy(x):
        sizes.append(np.size(x))
        return cont(x)

    monkeypatch.setattr(mu, "cont", spy)
    for interval, sigma, tau in batched_specs():
        sizes.clear()
        with capped_groups(100):
            mset_masses(mu, interval, BATCHED_NS, sigma, tau)
        # only the 250-interval A_n exceeds the cap, as a batch on its own
        assert max(sizes) == 250 and sorted(sizes)[-3] <= 100
        assert sum(sizes) == 2 * sum(BATCHED_NS)  # b, then a
        assert len(sizes) < 2 * len(BATCHED_NS)


def test_mset_masses_empty_and_out_of_domain(cantor40):
    assert mset_masses(cantor40, (0.0, 1.0), [], 0.2, 0.3).shape == (0,)
    # I reaches past the domain although its one interval [0.5, 0.85] does not
    with pytest.raises(DomainError):
        mset_masses(cantor40, (0.5, 1.2), [1], 0.0, 0.5)
    with pytest.raises(ValueError):  # every n is checked, not only the first
        mset_masses(cantor40, (0.0, 1.0), [3, 0], 0.2, 0.3)


def test_mset_whose_last_end_rounds_past_the_domain_is_measured(lebesgue_2pi):
    # sigma + tau = 1: the last end (24 + 1) * (2 pi / 25) rounds past 2 pi
    spec = MSetSpec((0.0, TWO_PI), 25, 0.5, 0.5)
    assert _intervals_oracle(spec)[1][-1] > TWO_PI
    # clamped where it is made
    assert msets._interval_ends(spec.interval, [25], 0.5, 0.5)[1][-1] == TWO_PI
    mass, = mset_masses(lebesgue_2pi, (0.0, TWO_PI), [25], 0.5, 0.5)
    assert mass == pytest.approx(np.pi, rel=1e-14)
    with pytest.raises(DomainError):  # no end outside the domain is measured
        lebesgue_2pi.interval_mass(0.0, np.nextafter(TWO_PI, 7.0))


def test_mset_masses_on_a_wide_domain():
    # for 49 of these n the unclamped last end passes b by more than 1e-12
    mu = build_measure(MeasureSpec.lebesgue((0.0, 1e6)))
    ns = np.arange(1, 400)
    masses = mset_masses(mu, (0.0, 1e6), ns, 0.5, 0.5)
    assert np.all(np.abs(masses - 5e5) <= 1e-14 * 5e5)


def test_mset_masses_with_an_a_n_past_the_cap(cantor40, monkeypatch):
    # 22 groups, six of them one A_n past the cap (5000 and 1001); each
    # group's CDF calls run in many chunks
    monkeypatch.setattr(measures, "_CDF_CHUNK", 4)
    ns = [37, 5000, 99, 64, 1001, 1, 80, 100, 7] * 3
    oracle = [np.sum(cantor40.interval_mass(*msets._interval_ends(
        (0.0, 1.0), [n], 0.2, 0.3))) for n in ns]
    with capped_groups(100):
        masses = mset_masses(cantor40, (0.0, 1.0), ns, 0.2, 0.3)
    assert np.array_equal(masses.view(np.int64),
                          np.array(oracle).view(np.int64))


def test_decreasing_cdf_raises_in_the_calling_thread():
    threads = []

    def peak(x):  # rises to 0.99, then falls: not a CDF
        threads.append(threading.get_ident())
        return np.minimum(x, 1.98 - x)

    mu = Measure((0.0, 1.0), peak, 1.0, cdf_rounding=0.0)
    with pytest.raises(DomainError, match="negative mass -0.004"):
        mu.interval_mass(0.995, 0.999)
    threads.clear()
    # 17 groups of one A_n each; the last interval of A_n has a negative
    # mass for n > 65 only, so A_200 in the last group raises
    ns = [52, 55, 58, 61] * 4 + [200]
    with capped_groups(100), pytest.raises(DomainError,
                                           match="negative mass"):
        mset_masses(mu, (0.0, 1.0), ns, 0.2, 0.3)
    assert threads == [threading.get_ident()] * 2 * len(ns)  # b, then a


def test_rounding_dips_of_a_table_cdf_read_zero():
    # the continuous part is F minus the jumps: 0.7 - 0.6 < 0.1
    jump = build_measure(MeasureSpec.cdf_table(
        [(0.0, 0.0), (0.5, 0.1), (0.5, 0.7), (1.0, 0.7)]))
    assert jump.interval_mass(0.75, 1.0) == 0.0
    with capped_groups(100):
        masses = mset_masses(jump, (0.5, 1.0), [1, 7, 50, 300], 0.2, 0.3)
    assert np.array_equal(masses, np.zeros(4))
    # np.interp steps back one ulp from just below the row at 0.22
    kink = build_measure(MeasureSpec.cdf_table(
        [(0.0, 0.0), (0.05, 0.1), (0.22, 0.9), (1.0, 1.0)]))
    below = np.nextafter(0.22, 0.0)
    assert kink.cont(below) > kink.cont(0.22)
    assert kink.interval_mass(below, 0.22) == 0.0


@pytest.mark.parametrize("n_cores", [2, 32])
def test_criterion_2_scan_peak_memory(n_cores, cantor40, cantor40_norm,
                                      monkeypatch):
    lam = build_lambda(cantor40_norm, K=3, J=3, N_max=2000, m=1)
    # 31 groups of at most one CDF chunk, one after another, however many
    # cores the host reports
    monkeypatch.setattr(os, "cpu_count", lambda: n_cores)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n_cores)), raising=False)
    tracemalloc.start()
    try:
        scan = proposition_scan(cantor40, (0.0, 1.0), 0.2, 0.3, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.ns.size == 1993  # 1,999,907 intervals
    assert peak <= 24e6  # one batch of all intervals peaked at 81 MB


MASS_MEASURES = st.one_of(
    st.just(MeasureSpec.lebesgue()), st.just(MeasureSpec.cantor(40)),
    st.floats(0.1, 0.9).map(lambda w: MeasureSpec.mixture(
        [(w, MeasureSpec.cantor(40)), (1.0 - w, MeasureSpec.lebesgue())])))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(spec=MASS_MEASURES, a=st.floats(0.0, 0.5), length=st.floats(0.1, 0.5),
       ns=st.lists(st.integers(1, 400), max_size=5), sigma=st.floats(0.0, 0.7),
       tau_frac=st.floats(0.0, 1.0))
def test_pushforward_identity_property(spec, a, length, ns, sigma, tau_frac):
    """mu(A_n) = mu(I) * nu_n(arc), nu the normalization of mu to I."""
    mu = build_measure(spec)
    b = a + length
    mass_I = float(mu.interval_mass(a, b))
    assume(mass_I > 1e-9)  # normalize needs mass on I
    tau = 0.02 + tau_frac * (0.97 - sigma)  # sigma + tau <= 0.99
    ns = [33, 32, *ns]  # at least two groups under a cap of 64
    with capped_groups(64):
        masses = mset_masses(mu, (a, b), ns, sigma, tau)
    nu = normalize(mu, (a, b))
    for n, mass in zip(ns, masses):
        arc = pushforward_arc_mass(nu, n, sigma, tau)
        assert abs(mass - mass_I * arc) < 1e-9  # criterion 3's tolerance


def test_pushforward_lebesgue_equidistributed(lebesgue_unit_norm):
    for n in (1, 2, 17):
        got = pushforward_arc_mass(lebesgue_unit_norm, n, 0.2, 0.3)
        assert got == pytest.approx(0.3, abs=1e-12)


def test_pushforward_identity_case(cantor40_norm):
    direct = cantor40_norm.interval_mass(0.1, 0.55)
    got = pushforward_arc_mass(cantor40_norm, 1, 0.1, 0.45)
    assert got == pytest.approx(direct)


def test_pushforward_matches_mset_mass(cantor40, cantor40_norm):
    # change of variables: A_n = affine(B_n) within I
    m1, = mset_masses(cantor40, (0.0, 1.0), [9], 0.25, 0.5)
    m2 = pushforward_arc_mass(cantor40_norm, 9, 0.25, 0.5)
    # rounding at Cantor plateau edges limits agreement to ~1e-10
    assert m1 == pytest.approx(m2, abs=1e-9)


def test_pushforward_mset_identity_random():
    rng = np.random.default_rng(11)
    mix = build_measure(MeasureSpec.mixture([
        (0.7, MeasureSpec.cantor(40)),
        (0.3, MeasureSpec.lebesgue((0.0, 1.0))),
    ]))
    for _ in range(25):
        a = rng.uniform(0.0, 0.4)
        b = rng.uniform(a + 0.2, 1.0)
        n = int(rng.integers(1, 300))
        s = rng.uniform(0.0, 0.6)
        t = rng.uniform(0.05, 1 - s - 0.01)
        mI = mix.interval_mass(a, b)
        m1, = mset_masses(mix, (a, b), [n], s, t)
        m2 = mI * pushforward_arc_mass(normalize(mix, (a, b)), n, s, t)
        assert abs(m1 - m2) < 1e-9


def test_proposition_scan_lebesgue_exact(lebesgue_2pi):
    nrm = normalize(lebesgue_2pi, (0.0, TWO_PI))
    lam = build_lambda(nrm, K=3, J=3, N_max=200, m=1)
    scan = proposition_scan(lebesgue_2pi, (0.0, TWO_PI), 0.2, 0.3, lam)
    assert np.max(scan.errors) < 1e-10
    assert scan.tail_sup < 1e-10


def test_proposition_scan_cantor(cantor40, cantor40_norm):
    # frozen from the direct scan: tail-sup is 0.0334 at this horizon
    lam = build_lambda(cantor40_norm, K=3, J=3, N_max=2000, m=1)
    scan = proposition_scan(cantor40, (0.0, 1.0), 0.2, 0.3, lam)
    assert scan.target == pytest.approx(0.3)
    assert scan.tail_sup <= 0.034
    # the bulk of the tail does converge: 99% of tail errors under 0.021
    tail = scan.errors[scan.ns >= 1500]
    assert np.quantile(tail, 0.99) <= 0.021
    assert np.quantile(tail, 0.5) <= 0.003


def test_proposition_scan_mixture():
    mix = build_measure(MeasureSpec.mixture([
        (0.7, MeasureSpec.cantor(40)),
        (0.3, MeasureSpec.lebesgue((0.0, 1.0))),
    ]))
    nrm = normalize(mix, (0.0, 1.0))
    lam = build_lambda(nrm, K=3, J=3, N_max=2000, m=1)
    scan = proposition_scan(mix, (0.0, 1.0), 0.2, 0.3, lam)
    # frozen from the direct scan: 0.0234 at this horizon
    assert scan.tail_sup <= 0.024


def test_proposition_scan_empty_index_set(lebesgue_2pi):
    from menshov.fourier import IndexSet
    empty = IndexSet(np.array([], dtype=np.int64), 100, 0.0)
    with pytest.raises(ValueError):
        proposition_scan(lebesgue_2pi, (0.0, TWO_PI), 0.2, 0.3, empty)


def test_mset_spec_validation():
    with pytest.raises(ValueError):
        MSetSpec((0.0, 1.0), 0, 0.2, 0.3)
    with pytest.raises(ValueError):
        MSetSpec((0.0, 1.0), 3, 0.5, 0.6)  # sigma + tau > 1
    with pytest.raises(ValueError):  # one ulp past 1: no slack
        MSetSpec((0.0, 1.0), 3, 0.5, 0.5000000000000002)
    # boundary-touching specs are accepted
    MSetSpec((0.0, 1.0), 3, 0.0, 0.5)
    MSetSpec((0.0, 1.0), 3, 0.5, 0.5)


@pytest.mark.parametrize("sigma, tau", [
    (np.nan, 0.3), (0.2, np.nan), (np.inf, 0.3), (-np.inf, 0.3),
    (0.2, np.inf), (0.2, -np.inf)])
def test_specs_reject_non_finite_sigma_tau(sigma, tau, cantor40,
                                          cantor40_norm):
    with pytest.raises(ValueError):
        MSetSpec((0.0, 1.0), 3, sigma, tau)
    with pytest.raises(ValueError):
        mset_masses(cantor40, (0.0, 1.0), [3], sigma, tau)
    with pytest.raises(ValueError):
        pushforward_arc_mass(cantor40_norm, 3, sigma, tau)
