import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import menshov.measures as measures
from menshov import (DomainError, Measure, MeasureSpec, MeasureSpecError,
                     build_measure, normalize, spectrum)
from menshov.measures import MAX_CANTOR_LEVELS, _CDF_CHUNK
from conftest import FIVE_KINDS, brute_force_atoms

TWO_PI = 2.0 * np.pi
LARGE_CALL = 16 * _CDF_CHUNK  # 2^20 points: the cells of a wiener-scan to N = 2048


def unit_cantor_cont(x, levels):
    """The level-`levels` Cantor CDF: the unit Cantor measure's cont."""
    return build_measure(MeasureSpec.cantor(levels)).cont(x)


def cantor_exact(x, levels):
    """The level-`levels` Cantor CDF at the double x, clamped to [0, 1], as
    an exact Fraction: x = p/q, one ternary digit per level in integers."""
    p, q = Fraction(min(max(x, 0.0), 1.0)).as_integer_ratio()
    y = 0  # the binary digits so far
    for k in range(1, levels + 1):
        p *= 3
        d = min(p // q, 2)
        p -= d * q
        y = 2 * y + (d > 0)
        if d == 1:  # a plateau
            return Fraction(y, 2**k)
    return Fraction(y * q + p, q * 2**levels)


def float_loop_cdf(x, levels):
    """The level-`levels` Cantor CDF by a float loop over all levels, which
    rounds t *= 3 at every level; the error the exact kernel must not exceed
    below 2^-11."""
    t = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
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
    return y


def _ulps(got, x, levels):
    """|got - F(x)| in ulps of the double nearest F(x), exactly."""
    out = []
    for g, xi in zip(got, x):
        e = cantor_exact(float(xi), levels)
        out.append(float(abs(Fraction(float(g)) - e)
                         / Fraction(float(np.spacing(float(e))))))
    return np.array(out)


def _exact_oracle_points():
    rng = np.random.default_rng(11)
    edges = np.array([k / 3.0**m for m in range(1, 7) for k in range(3**m + 1)])
    # ends of random level-40 intervals: 40 ternary digits 0 or 2, and + 3^-40
    digits = 2 * rng.integers(0, 2, (300, 40))
    lefts = [sum(Fraction(int(d), 3**k) for k, d in enumerate(row, 1))
             for row in digits]
    ends = [float(e) for a in lefts for e in (a, a + Fraction(1, 3**40))]
    thirds = 3.0 ** -np.arange(6, 60)  # 3^-6 > 2^-11 > 3^-7
    below = np.concatenate([
        thirds, np.nextafter(thirds, 0.0), np.nextafter(thirds, 1.0),
        [5e-324, 7 * 5e-324, 1e-310, 2.0**-1022, 1e-300, 2.0**-75,
         np.nextafter(2.0**-75, 0.0), np.nextafter(2.0**-11, 0.0)],
        2.0 ** -rng.uniform(11.0, 90.0, 400)])
    inside = np.concatenate([
        rng.uniform(0.0, 1.0, 2000), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0), ends, np.linspace(0.0, 1.0, 2**10 + 1),
        [0.25, 0.75, 2.0**-11, 1.0 / 3.0, 1.0]])  # 0.25 never settles
    return inside, below[below < 2.0**-11]


@pytest.mark.parametrize("levels", [1, 2, 5, 8, 9, 12, 16, 17, 40,
                                    MAX_CANTOR_LEVELS])
def test_cantor_cdf_within_one_ulp_of_exact_oracle(levels):
    inside, below = _exact_oracle_points()
    got = unit_cantor_cont(inside, levels)
    want = np.array([float(cantor_exact(x, levels)) for x in inside])
    ok = (np.nextafter(want, -np.inf) <= got) & (got <= np.nextafter(want, np.inf))
    assert ok.all(), inside[~ok][:5]
    # below 2^-11: under 2 ulps (the linear part past 33 levels rounds
    # twice) and no worse than the float loop
    err = _ulps(unit_cantor_cont(below, levels), below, levels).max()
    assert err < 2.0
    assert err <= _ulps(float_loop_cdf(below, levels), below, levels).max()
    for x in (0.0, -0.0, -1.0, -np.inf, 2.0, np.inf):  # -0.0 reads 0.0
        edge = unit_cantor_cont(np.array([x]), levels)
        assert edge.view(np.int64) == np.float64(x >= 1.0).view(np.int64)
    assert np.isnan(unit_cantor_cont(np.array([np.nan, 0.5]), levels)[0])
    assert unit_cantor_cont(np.empty(0), levels).shape == (0,)
    # 0-d and 2-d inputs take the values of the 1-d ones
    one_third = unit_cantor_cont(np.array(1.0 / 3.0), levels)
    assert type(one_third) is np.float64
    assert one_third == unit_cantor_cont(np.array([1.0 / 3.0]), levels)[0]
    square = unit_cantor_cont(inside[:2000].reshape(40, 50), levels)
    assert np.array_equal(square, got[:2000].reshape(40, 50))


def exact_cont(spec, x):
    """The exact continuous CDF of spec at the Fraction x in its domain,
    for Cantor specs on [0, 1], whose input map rounds nothing."""
    u, v = (Fraction(e) for e in spec.domain)
    if spec.kind == "lebesgue":
        return Fraction(spec.scale) * (x - u)
    if spec.kind == "atomic":
        return Fraction(0)
    if spec.kind == "cantor":
        assert (u, v) == (0, 1)
        return Fraction(spec.total) * cantor_exact(float(x), spec.levels)
    if spec.kind == "mixture":
        return sum(Fraction(w) * exact_cont(s, x) for w, s in spec.components)
    rows = [(Fraction(a), Fraction(F)) for a, F in spec.table]
    cont, jumps = [], Fraction(0)
    for i, (a, F) in enumerate(rows):
        if i and a == rows[i - 1][0]:
            jumps += F - rows[i - 1][1]
        cont.append((a, F - rows[0][1] - jumps))
    for (a0, F0), (a1, F1) in zip(cont, cont[1:]):
        if a0 < a1 and a0 <= x <= a1:
            return F0 + (F1 - F0) * (x - a0) / (a1 - a0)
    raise AssertionError("x outside the table")


TABLE = MeasureSpec.cdf_table([(0.0, 0.5), (0.25, 0.8), (0.25, 1.3),
                               (0.6, 1.45), (1.0, 2.1)])
ROUNDING_SPECS = [
    MeasureSpec.lebesgue((-1.0, 3.0), 2.3),
    MeasureSpec.cantor(40, 3.7),
    TABLE,
    MeasureSpec.mixture([(0.3, MeasureSpec.cantor(12)), (1.7, TABLE),
                         (0.6, MeasureSpec.atomic([(0.5, 1.0)]))]),
]


@pytest.mark.parametrize("spec", ROUNDING_SPECS,
                         ids=["lebesgue", "cantor", "cdf_table", "mixture"])
def test_cdf_rounding_covers_exact_cdf(spec):
    mu = build_measure(spec)
    u, v = spec.domain
    x = u + (v - u) * np.arange(2**9 + 1) / 2**9  # dyadic: exact doubles
    got = mu.cont(x)
    worst = max(abs(Fraction(float(g)) - exact_cont(spec, Fraction(float(xi))))
                for g, xi in zip(got, x))
    assert 0.0 < mu.cdf_rounding < 1e-13
    assert worst <= mu.cdf_rounding


@pytest.mark.parametrize("spec", ROUNDING_SPECS[1:],
                         ids=["cantor", "cdf_table", "mixture"])
def test_normalize_cdf_rounding_covers_exact_cdf(spec):
    # I = [0.25, 0.75]: 0.25 + t / 2 is exact at the dyadic t below, so
    # every error is the rounding cdf_rounding counts
    mu = build_measure(spec)
    nu = normalize(mu, (0.25, 0.75))
    a, b = Fraction(1, 4), Fraction(3, 4)
    inside = [m for p, m in zip(mu.atom_positions, mu.atom_masses)
              if a <= p <= b]
    base = exact_cont(spec, a)
    M = exact_cont(spec, b) - base + sum(Fraction(float(m)) for m in inside)
    t = np.arange(2**9 + 1) / 2**9
    got = nu.cont(t)
    worst = max(abs(Fraction(float(g))
                    - (exact_cont(spec, a + Fraction(float(ti)) / 2) - base) / M)
                for g, ti in zip(got, t))
    assert 0.0 < nu.cdf_rounding < 1e-13
    assert worst <= nu.cdf_rounding


def identity_cdf(x):
    return x


def test_hand_built_measure_states_its_cdf_rounding():
    with pytest.raises(TypeError):  # no default that counts no rounding
        Measure((0.0, 1.0), identity_cdf, 1.0)
    with pytest.raises(TypeError):  # a keyword, not a sixth position
        Measure((0.0, 1.0), identity_cdf, 1.0, (), (), 0.0)


def test_measure_refuses_a_negative_or_non_finite_cdf_rounding():
    # a negative bound would make the error bounds below negative
    for bad in (-1.0, -1e-300, np.nan, np.inf):
        with pytest.raises(MeasureSpecError, match="cdf_rounding must be"):
            Measure((0.0, 1.0), identity_cdf, 1.0, cdf_rounding=bad)
    for d in (0.0, 1e-3):
        mu = Measure((0.0, 1.0), identity_cdf, 1.0, cdf_rounding=d)
        assert mu.cdf_rounding == d
        assert np.all(spectrum(mu, 4).coefficients([1, 2])[1] > 0.0)


def test_cantor_cdf_scalar_input_gives_numpy_scalar():
    for x in (0.0, 0.15, 1.0 / 3.0, 0.7, 1.0, -0.0, np.float64(0.4)):
        got = unit_cantor_cont(x, 40)
        assert type(got) is np.float64
        assert got == unit_cantor_cont(np.array([x]), 40)[0]
    assert np.isnan(unit_cantor_cont(np.nan, 40))


def test_cantor_measure_masses_bitwise_equal_oracle_path():
    # the oracle path: the kernel on all of each array, not chunk by chunk
    m = build_measure(MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)))
    rng = np.random.default_rng(3)
    a, b = np.sort(rng.uniform(0.0, TWO_PI, (2, 2 * _CDF_CHUNK + 5)), axis=0)
    got = m.interval_mass(a, b)
    want = np.maximum(m._kernel(b) - m._kernel(a), 0.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("name", [*STREAM_SPECS, "normalized cantor"])
def test_streamed_cont_bitwise_equals_one_pass(name):
    m = _stream_measure(name)
    u, v = m.domain
    inputs = [_stream_input(m, n, n) for n in
              (1, _CDF_CHUNK, _CDF_CHUNK + 1, LARGE_CALL + 3)]
    inputs.append(_stream_input(m, (257, 300), 9))  # 2-D, several chunks
    got = [m.cont(x) for x in inputs]
    scalars = [0.5 * (u + v), u, v]
    got_scalar = [m.cont(x) for x in scalars]
    # one pass: the kernel on all of x
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
    x = np.linspace(0.0, 1.0, LARGE_CALL + 3)
    assert _peak_memory(cantor40_norm.cont, x) <= 3 * x.nbytes


@pytest.mark.parametrize("n", [2**20 + 1, 2**22 + 1])
def test_cdf_peak_memory_bounds_hold_on_many_cores(n, cantor40_norm):
    # cont runs its chunks one after another on any number of cores
    x = np.linspace(0.0, 1.0, n)
    assert _peak_memory(cantor40_norm.cont, x) <= 3 * x.nbytes


def test_cdf_calls_start_no_thread():
    code = textwrap.dedent(f"""
        import sys
        import threading
        n0 = threading.active_count()
        import numpy as np
        import menshov
        from menshov import measures
        assert threading.active_count() == n0, "import started a thread"
        assert measures._cantor_tables.cache_info().currsize == 0
        mu = menshov.build_measure(menshov.MeasureSpec.cantor(40))
        mu.cont(np.linspace(0.0, 1.0, {LARGE_CALL}))
        assert threading.active_count() == n0, "a CDF call started a thread"
        assert measures._cantor_tables.cache_info().currsize == 1  # 40 = 5 * 8
        # 16 groups of one A_n each, 40,000 intervals apiece
        menshov.mset_masses(mu, (0.0, 1.0), [40000] * 16, 0.2, 0.3)
        assert threading.active_count() == n0, "an M-set scan started a thread"
        assert "concurrent.futures" not in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _cdf_oracle(m, x, side):
    """F(x) on side "right", F(x-) on "left": cont plus, when m has atoms,
    the atoms up to x."""
    c = m.cont(x)
    if m.atom_positions.size == 0:
        return c
    return c + m._atom_cum[np.searchsorted(m.atom_positions, x, side=side)]


def _interval_mass_oracle(m, a, b):
    """Mass of [a, b] as F(b) - F(a-) of the right-continuous CDF."""
    return np.maximum(_cdf_oracle(m, b, "right") - _cdf_oracle(m, a, "left"),
                      0.0)


@pytest.mark.parametrize("spec", FIVE_KINDS, ids=lambda s: s.kind)
def test_interval_mass_bitwise_equals_atom_gather(spec):
    m = build_measure(spec)
    u, v = m.domain
    ab = np.sort(np.random.default_rng(4).uniform(u, v, (2, 5000)), axis=0)
    atoms = m.atom_positions
    pairs = [(ab[0], ab[1]), (u, v), (0.5 * (u + v), v), (u, u), (v, v),
             (np.array([u, u, -0.0, 0.0]), np.array([u, v, -0.0, -0.0])),
             (atoms, atoms), (atoms[:-1], atoms[1:])]  # [b, b]; atom ends
    if atoms.size:
        pairs += [(atoms[0], atoms[-1]), (u, atoms[0]), (atoms[-1], v)]
    for a, b in pairs:
        got, want = m.interval_mass(a, b), _interval_mass_oracle(m, a, b)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(want).view(np.int64))


def test_lebesgue_total_mass():
    m = build_measure(MeasureSpec.lebesgue((0.0, TWO_PI)))
    assert m.total_mass == pytest.approx(TWO_PI, abs=1e-12)
    assert m.interval_mass(0.0, np.pi) == pytest.approx(np.pi, abs=1e-12)


def test_measure_arrays_are_read_only():
    # a write to atom_masses would move the atom sum of fourier but not
    # interval_mass or total_mass, which read the prefix sums
    spec = MeasureSpec.mixture([(0.5, MeasureSpec.lebesgue((0.0, 1.0))),
                                (0.5, MeasureSpec.atomic([(0.3, 1.0)]))])
    mu = build_measure(spec)
    for arr in (mu.atom_positions, mu.atom_masses, mu._atom_cum):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    assert mu.interval_mass(0.0, 1.0) == mu.total_mass == 1.0


def test_atomic_cdf_jump():
    m = build_measure(MeasureSpec.atomic([(1.0, 0.3)], (0.0, 2.0)))
    assert m.interval_mass(0.0, np.nextafter(1.0, 0.0)) == 0.0
    assert m.interval_mass(1.0, 1.0) == 0.3
    assert m.interval_mass(0.5, 1.5) == pytest.approx(0.3)
    # endpoint atoms are included in closed intervals
    assert m.interval_mass(1.0, 1.5) == pytest.approx(0.3)
    assert m.interval_mass(0.0, 1.0) == pytest.approx(0.3)


def test_cantor_symmetry_and_self_similarity(cantor40):
    assert cantor40.interval_mass(0.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    # double(1/3) lies 1.9e-17 below 1/3, in the left third, so its mass is
    # below 0.5 by F(1/3) - F(double(1/3)); the next double is on the plateau
    assert cantor40.interval_mass(0.0, 1.0 / 3.0) == float(
        cantor_exact(1.0 / 3.0, 40))
    assert cantor40.interval_mass(0.0, np.nextafter(1.0 / 3.0, 1.0)) == 0.5
    # removed middle-third intervals carry zero mass at every level <= 40
    assert cantor40.interval_mass(1.0 / 3.0 + 1e-9, 2.0 / 3.0 - 1e-9) == 0.0
    assert cantor40.interval_mass(1.0 / 9.0 + 1e-9, 2.0 / 9.0 - 1e-9) == 0.0


def test_cantor_cdf_plateau_exactness():
    # exact on complementary-interval plateaus, all levels up to L
    for L in (3, 10, 40):
        assert unit_cantor_cont(0.4, L) == 0.5
        assert unit_cantor_cont(np.nextafter(1.0 / 3.0, 1.0), L) == 0.5
        assert unit_cantor_cont(0.15, L) == 0.25
        # double(1/3) is just left of the plateau: the exact value there
        assert unit_cantor_cont(1.0 / 3.0, L) == float(cantor_exact(1.0 / 3.0, L))
    assert unit_cantor_cont(0.0, 40) == 0.0
    assert unit_cantor_cont(1.0, 40) == 1.0


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
            jump = m.interval_mass(b, b)
            rhs = m.interval_mass(a, b) + m.interval_mass(b, c) - jump
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("a, b", [(np.nan, 0.5), (0.1, np.nan),
                                  (-np.inf, 0.5), (0.1, np.inf),
                                  (np.array([0.1, np.nan]), 0.5)])
def test_interval_mass_rejects_non_finite_endpoints(cantor40, a, b):
    with pytest.raises(DomainError):
        cantor40.interval_mass(a, b)


def test_interval_mass_and_normalize_refuse_ends_just_outside(cantor40):
    # no slack: 1e-13 past either end of [0, 1] is outside the domain
    with pytest.raises(DomainError):
        cantor40.interval_mass(0.0, 1.0 + 1e-13)
    with pytest.raises(DomainError):
        cantor40.interval_mass(-1e-13, 1.0)
    with pytest.raises(DomainError):
        normalize(cantor40, (0.0 - 1e-13, 1.0))
    with pytest.raises(DomainError):
        normalize(cantor40, (0.0, 1.0 + 1e-13))


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
        assert nrm.interval_mass(0.0, t) == pytest.approx(t, abs=1e-12)


def test_normalize_degenerate_interval(cantor40):
    with pytest.raises(MeasureSpecError):
        normalize(cantor40, (0.4, 0.6))  # inside the big plateau, zero mass


def atoms(m):
    return list(zip(m.atom_positions.tolist(), m.atom_masses.tolist()))


def test_atom_list_lebesgue(lebesgue_2pi):
    assert atoms(lebesgue_2pi) == []


def test_atom_list_recovers_atoms():
    m = build_measure(MeasureSpec.atomic([(1.0, 0.3), (2.0, 0.2)], (0.0, 3.0)))
    assert atoms(m) == [(1.0, 0.3), (2.0, 0.2)]


def test_atom_list_mixture_matches_brute_force_scan():
    spec = MeasureSpec.mixture([
        (0.5, MeasureSpec.lebesgue((0.0, 2.0))),
        (0.5, MeasureSpec.atomic([(1.0, 1.0)], (0.0, 2.0))),
    ])
    m = build_measure(spec)
    got = atoms(m)
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
    assert m.interval_mass(0.5, 0.5) == pytest.approx(0.5)
    assert m.interval_mass(0.0, 0.25) == pytest.approx(0.125)
    assert atoms(m) == [(0.5, 0.5)]


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
