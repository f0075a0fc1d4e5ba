import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import menshov.measures as measures
from menshov import (DomainError, MeasureSpec, MeasureSpecError, atomic_part,
                     build_measure, cantor_cdf, normalize)
from menshov.measures import MAX_CANTOR_LEVELS, _CDF_CHUNK, _WORKER_CHUNKS
from conftest import brute_force_atoms

TWO_PI = 2.0 * np.pi
TWO_WORKERS = 2 * _WORKER_CHUNKS * _CDF_CHUNK  # points: enough for two workers


def cantor_cdf_oracle(x, levels):
    """Full-array loop: every point takes all `levels` passes."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    t = np.clip(np.atleast_1d(x), 0.0, 1.0).copy()
    y = np.zeros_like(t)
    done = np.zeros(t.shape, dtype=bool)
    f = 0.5
    for _ in range(levels):
        t *= 3.0
        d = np.minimum(np.floor(t), 2.0)
        hit = ~done & (d == 1.0)
        y[hit] += f
        done |= hit
        two = ~done & (d == 2.0)
        y[two] += f
        t -= d
        f *= 0.5
    rem = ~done
    y[rem] += 2.0 * f * t[rem]
    return y[0] if scalar else y


def _oracle_inputs():
    rng = np.random.default_rng(11)
    edges = np.array([k / 3.0**m for m in range(1, 9)
                      for k in range(3**m + 1)])
    yield "uniform", rng.uniform(0.0, 1.0, 50_000)
    for k in (1, 4, 10, 17):
        yield f"dyadic 2^{k}", np.linspace(0.0, 1.0, 2**k + 1)
    yield "triadic edges", edges
    yield "below edges", np.nextafter(edges, -np.inf)
    yield "above edges", np.nextafter(edges, np.inf)
    yield "outside", np.array([-2.0, -1e-300, 1.0 + 1e-16, 1.5, 7.0,
                               np.inf, -np.inf])
    yield "signed zeros and nan", np.array([0.0, -0.0, np.nan, 0.5, np.nan])
    yield "empty", np.empty(0)
    yield "0-d", np.array(0.7)
    yield "2-d", rng.uniform(-0.1, 1.1, (37, 53))
    for n in (_CDF_CHUNK - 1, _CDF_CHUNK, _CDF_CHUNK + 1):
        yield f"size {n}", rng.uniform(0.0, 1.0, n)


@pytest.mark.parametrize("levels", [1, 2, 5, 12, 40])
def test_cantor_cdf_bitwise_equals_full_loop_oracle(levels):
    for name, x in _oracle_inputs():
        got, want = cantor_cdf(x, levels), cantor_cdf_oracle(x, levels)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want, equal_nan=True), name
        # bitwise, so +0.0 and -0.0 would count as different values
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_cantor_cdf_scalar_input_gives_numpy_scalar():
    for x in (0.0, 0.15, 1.0 / 3.0, 0.7, 1.0, -0.0, np.float64(0.4)):
        got = cantor_cdf(x, 40)
        assert type(got) is np.float64
        assert got == cantor_cdf_oracle(x, 40)
    assert np.isnan(cantor_cdf(np.nan, 40))


def test_cantor_measure_masses_bitwise_equal_oracle_path(monkeypatch):
    m = build_measure(MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)))
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(0.0, TWO_PI, (2, 20_000)), axis=0)
    got = m.interval_mass(a[0], a[1])
    monkeypatch.setattr(measures, "_cantor_kernel", cantor_cdf_oracle)
    assert np.array_equal(got, m.interval_mass(a[0], a[1]))


def test_cantor_cdf_peak_memory_near_output_size():
    x = np.linspace(0.0, 1.0, 2**20 + 1)
    tracemalloc.start()
    try:
        cantor_cdf(x, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes


STREAM_SPECS = {
    "lebesgue": MeasureSpec.lebesgue((0.0, TWO_PI), 2.0),
    "atomic": MeasureSpec.atomic([(0.25, 0.5), (0.5, 1.0), (0.6, 0.25)]),
    "cantor": MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)),
    "cdf_table": MeasureSpec.cdf_table([(0.0, 0.0), (0.3, 0.2), (0.3, 0.5),
                                        (1.0, 1.0)]),
    "mixture": MeasureSpec.mixture([(0.7, MeasureSpec.cantor(40)),
                                    (0.3, MeasureSpec.lebesgue())]),
}


def _stream_measure(name):
    if name == "normalized cantor":
        return normalize(build_measure(STREAM_SPECS["cantor"]), (0.5, 5.5))
    return build_measure(STREAM_SPECS[name])


def _stream_input(m, shape, seed):
    """Points over the domain and 10% past each end, with the ends and ±0.0."""
    u, v = m.domain
    x = np.random.default_rng(seed).uniform(u - 0.1 * (v - u),
                                            v + 0.1 * (v - u), shape)
    flat = x.reshape(-1)
    specials = np.array([u, v, -0.0, 0.0])[:flat.size]
    flat[:specials.size] = specials
    return x


@pytest.fixture
def cores(monkeypatch):
    """set_cores(n): _chunked sees n cores and a fresh pool of n workers."""
    pools = []

    def set_cores(n):
        pools.append(ThreadPoolExecutor(max_workers=n))
        monkeypatch.setattr(measures, "_cores", lambda: n)
        monkeypatch.setattr(measures, "_pool", lambda: pools[-1])

    yield set_cores
    for pool in pools:
        pool.shutdown()


@pytest.mark.parametrize("name", [*STREAM_SPECS, "normalized cantor"])
def test_streamed_cont_bitwise_equals_one_pass(name, monkeypatch, cores):
    cores(4)  # fan out on any host
    m = _stream_measure(name)
    u, v = m.domain
    inputs = [_stream_input(m, n, n) for n in
              (1, _CDF_CHUNK, _CDF_CHUNK + 1, TWO_WORKERS + 3)]
    inputs.append(_stream_input(m, (257, 300), 9))  # 2-D, several chunks
    got = [m.cont(x) for x in inputs]
    scalars = [0.5 * (u + v), u, v]
    got_scalar = [m.cont(x) for x in scalars]
    # one pass: the kernel on all of x, through the 40-pass Cantor loop
    monkeypatch.setattr(measures, "_cantor_kernel", cantor_cdf_oracle)
    for x, g in zip(inputs, got):
        want = m._kernel(np.ravel(x)).reshape(np.shape(x))
        assert g.shape == want.shape == x.shape
        assert np.array_equal(g.view(np.int64), want.view(np.int64)), x.shape
    for x, g in zip(scalars, got_scalar):
        assert type(g) is np.float64
        assert g == m._kernel(np.array([x]))[0]


def _peak_memory(f, x):
    tracemalloc.start()
    try:
        f(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normalized_cantor_cont_peak_memory(cantor40_norm):
    x = np.linspace(0.0, 1.0, TWO_WORKERS + 3)
    assert _peak_memory(cantor40_norm.cont, x) <= 3 * x.nbytes


@pytest.mark.parametrize("n", [2**20 + 1, 2**22 + 1])
def test_cdf_peak_memory_bounds_hold_on_many_cores(n, cantor40_norm, cores):
    cores(16)  # a 2**22-point call then runs on 8 workers
    x = np.linspace(0.0, 1.0, n)
    assert _peak_memory(lambda x: cantor_cdf(x, 40), x) <= 2 * x.nbytes
    assert _peak_memory(cantor40_norm.cont, x) <= 3 * x.nbytes


def test_cdf_threads_start_only_for_large_calls():
    code = textwrap.dedent(f"""
        import threading
        n0 = threading.active_count()
        import numpy as np
        import menshov
        from menshov import measures
        assert threading.active_count() == n0, "import started a thread"
        measures._cores = lambda: 2  # fan out on a one-core host too
        mu = menshov.build_measure(menshov.MeasureSpec.cantor(40))
        mu.cont(np.linspace(0.0, 1.0, {TWO_WORKERS - _CDF_CHUNK}))
        assert threading.active_count() == n0, "small call started a thread"
        mu.cont(np.linspace(0.0, 1.0, {TWO_WORKERS}))
        n1 = threading.active_count()
        pool = measures._pool()
        assert n0 < n1 <= n0 + 2
        for _ in range(3):
            mu.cont(np.linspace(0.0, 1.0, {TWO_WORKERS}))
            assert measures._pool() is pool
            assert threading.active_count() == n1, "a new pool per call"
    """)
    # a worker waiting on the pool would hang; the timeout makes that a failure
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _interval_mass_oracle(m, a, b):
    """interval_mass with the atom term always gathered."""
    def with_atoms(x, side):
        idx = np.searchsorted(m.atom_positions, x, side=side)
        return m.cont(x) + m._atom_cum[idx]

    return np.maximum(with_atoms(b, "right") - with_atoms(a, "left"), 0.0)


@pytest.mark.parametrize("name", STREAM_SPECS)
def test_interval_mass_bitwise_equals_atom_gather(name):
    m = _stream_measure(name)
    u, v = m.domain
    ab = np.sort(np.random.default_rng(4).uniform(u, v, (2, 5000)), axis=0)
    pairs = [(ab[0], ab[1]), (u, v), (0.5 * (u + v), v), (u, u),
             (np.array([u, u, -0.0, 0.0]), np.array([u, v, -0.0, -0.0]))]
    for a, b in pairs:
        got, want = m.interval_mass(a, b), _interval_mass_oracle(m, a, b)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(want).view(np.int64))


def test_lebesgue_total_mass():
    m = build_measure(MeasureSpec.lebesgue((0.0, TWO_PI)))
    assert m.total_mass == pytest.approx(TWO_PI, abs=1e-12)
    assert m.interval_mass(0.0, np.pi) == pytest.approx(np.pi, abs=1e-12)


def test_atomic_cdf_jump():
    m = build_measure(MeasureSpec.atomic([(1.0, 0.3)], (0.0, 2.0)))
    assert m.cdf_left(1.0) == 0.0
    assert m.cdf(1.0) == 0.3
    assert m.interval_mass(0.5, 1.5) == pytest.approx(0.3)
    # endpoint atoms are included in closed intervals
    assert m.interval_mass(1.0, 1.5) == pytest.approx(0.3)
    assert m.interval_mass(0.0, 1.0) == pytest.approx(0.3)


def test_cantor_symmetry_and_self_similarity(cantor40):
    assert cantor40.cdf(0.5) == pytest.approx(0.5, abs=1e-12)
    assert cantor40.interval_mass(0.0, 1.0 / 3.0) == pytest.approx(0.5, abs=1e-12)
    # removed middle-third intervals carry zero mass at every level <= 40
    assert cantor40.interval_mass(1.0 / 3.0 + 1e-9, 2.0 / 3.0 - 1e-9) == 0.0
    assert cantor40.interval_mass(1.0 / 9.0 + 1e-9, 2.0 / 9.0 - 1e-9) == 0.0


def test_cantor_cdf_plateau_exactness():
    # exact on complementary-interval plateaus, all levels up to L
    for L in (3, 10, 40):
        assert cantor_cdf(0.4, L) == 0.5
        assert cantor_cdf(1.0 / 3.0, L) == 0.5
        assert cantor_cdf(0.15, L) == 0.25
    assert cantor_cdf(0.0, 40) == 0.0
    assert cantor_cdf(1.0, 40) == 1.0


def test_additivity_on_adjacent_intervals():
    rng = np.random.default_rng(7)
    specs = [
        MeasureSpec.lebesgue((0.0, 1.0)),
        MeasureSpec.cantor(20),
        MeasureSpec.mixture([(0.5, MeasureSpec.cantor(20)),
                             (0.5, MeasureSpec.atomic([(0.25, 1.0)]))]),
    ]
    for spec in specs:
        m = build_measure(spec)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(0.0, 1.0, size=3))
            lhs = m.interval_mass(a, c)
            jump = m.cdf(b) - m.cdf_left(b)
            rhs = m.interval_mass(a, b) + m.interval_mass(b, c) - jump
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("a, b", [(np.nan, 0.5), (0.1, np.nan),
                                  (-np.inf, 0.5), (0.1, np.inf),
                                  (np.array([0.1, np.nan]), 0.5)])
def test_interval_mass_rejects_non_finite_endpoints(cantor40, a, b):
    with pytest.raises(DomainError):
        cantor40.interval_mass(a, b)


def test_normalize_is_probability(cantor40, lebesgue_2pi):
    for m, iv in [(lebesgue_2pi, (0.0, TWO_PI)),
                  (lebesgue_2pi, (np.pi, TWO_PI)),
                  (cantor40, (0.0, 1.0))]:
        nrm = normalize(m, iv)
        assert nrm.domain == (0.0, 1.0)
        assert nrm.interval_mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_normalize_affine_invariance(lebesgue_2pi):
    nrm = normalize(lebesgue_2pi, (np.pi, TWO_PI))
    # normalized Lebesgue: mass of [0, t] is t
    for t in (0.1, 0.5, 0.9):
        assert nrm.cdf(t) == pytest.approx(t, abs=1e-12)


def test_normalize_degenerate_interval(cantor40):
    with pytest.raises(MeasureSpecError):
        normalize(cantor40, (0.4, 0.6))  # inside the big plateau, zero mass


def test_atomic_part_lebesgue(lebesgue_2pi):
    assert atomic_part(lebesgue_2pi) == []


def test_atomic_part_recovers_atoms():
    m = build_measure(MeasureSpec.atomic([(1.0, 0.3), (2.0, 0.2)], (0.0, 3.0)))
    assert atomic_part(m) == [(1.0, 0.3), (2.0, 0.2)]


def test_atomic_part_mixture_matches_brute_force_scan():
    spec = MeasureSpec.mixture([
        (0.5, MeasureSpec.lebesgue((0.0, 2.0))),
        (0.5, MeasureSpec.atomic([(1.0, 1.0)], (0.0, 2.0))),
    ])
    m = build_measure(spec)
    got = atomic_part(m)
    oracle = brute_force_atoms(m)
    assert len(got) == len(oracle) == 1
    assert got[0][1] == pytest.approx(0.5, abs=1e-12)
    assert got[0][0] == pytest.approx(oracle[0][0], abs=2.0 * 2.0 / 2**20)
    # the scan oracle picks up the continuous mass of its own cell
    # (density 1/2 over a cell of width 2/2^20)
    assert got[0][1] == pytest.approx(oracle[0][1], abs=2.0 * 2.0 / 2**20)


def test_cdf_table_with_jump_rows():
    # duplicate x rows encode explicit jumps
    spec = MeasureSpec.cdf_table([(0.0, 0.0), (0.5, 0.25), (0.5, 0.75),
                                  (1.0, 1.0)])
    m = build_measure(spec)
    assert m.total_mass == pytest.approx(1.0)
    assert m.cdf(0.5) - m.cdf_left(0.5) == pytest.approx(0.5)
    assert m.interval_mass(0.0, 0.25) == pytest.approx(0.125)
    assert atomic_part(m) == [(0.5, 0.5)]


def test_spec_validation_errors():
    with pytest.raises(MeasureSpecError):
        MeasureSpec.lebesgue((0.0, 1.0), scale=-1.0)
    with pytest.raises(MeasureSpecError):
        MeasureSpec.atomic([(2.0, 0.5)], (0.0, 1.0))  # atom outside domain
    with pytest.raises(MeasureSpecError):
        MeasureSpec.atomic([(0.5, 0.0)], (0.0, 1.0))  # zero mass
    with pytest.raises(MeasureSpecError):
        MeasureSpec.cdf_table([(0.0, 0.5), (1.0, 0.0)])  # decreasing F
    # built field by field: levels defaults to 0, so no Lebesgue stand-in
    with pytest.raises(MeasureSpecError, match="cantor levels"):
        MeasureSpec("cantor", (0.0, 1.0))
    with pytest.raises(MeasureSpecError, match="lebesgue scale"):
        MeasureSpec("lebesgue", (0.0, 1.0), scale="2")
    with pytest.raises(MeasureSpecError, match="cdf_table F"):
        MeasureSpec.cdf_table([(0.0, 0.5), (1.0, 0.5)])  # no mass
    MeasureSpec.cantor(MAX_CANTOR_LEVELS)
    with pytest.raises(MeasureSpecError, match="cantor levels"):
        MeasureSpec.cantor(MAX_CANTOR_LEVELS + 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spec_refuses_overflow_to_infinite_mass():
    with pytest.raises(MeasureSpecError, match="atom mass overflows"):
        MeasureSpec.atomic([(0.25, 1e308), (0.75, 1e308)])
    with pytest.raises(MeasureSpecError, match="cdf_table F overflows"):
        MeasureSpec.cdf_table([(0.0, -1e308), (1.0, 1e308)])
    with pytest.raises(MeasureSpecError, match="lebesgue scale overflows"):
        MeasureSpec.lebesgue((0.0, 1e10), scale=1e300)
    with pytest.raises(MeasureSpecError, match="lebesgue scale must be"):
        MeasureSpec.lebesgue(scale=10**400)  # an int too large for a float
    with pytest.raises(MeasureSpecError, match="invalid lebesgue domain"):
        MeasureSpec.lebesgue((0, 10**400))
    with pytest.raises(MeasureSpecError, match="width is inf"):
        MeasureSpec.cantor(40, 1.0, (-1e308, 1e308))


def test_spec_from_dict_matches_constructors():
    spec = MeasureSpec.mixture([
        (0.6, MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI))),
        (0.4, MeasureSpec.lebesgue((0.0, TWO_PI))),
    ])
    doc = {"kind": "mixture", "components": [
        {"weight": 0.6, "spec": {"kind": "cantor", "levels": 40, "total": 1.0,
                                 "domain": [0.0, TWO_PI]}},
        {"weight": 0.4, "spec": {"kind": "lebesgue", "domain": [0.0, TWO_PI]}}]}
    assert MeasureSpec.from_dict(doc) == spec
    table = [(0.0, 0.0), (0.5, 0.25), (0.5, 0.75), (1.0, 1.0)]
    assert MeasureSpec.from_dict({"kind": "cdf_table", "table": table}) == \
        MeasureSpec.cdf_table(table)
