import numpy as np
import pytest

from menshov import (MeasureSpec, MeasureSpecError, atomic_part,
                     build_measure, cantor_cdf, normalize)
from conftest import brute_force_atoms

TWO_PI = 2.0 * np.pi


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


def test_spec_json_round_trip():
    spec = MeasureSpec.mixture([
        (0.6, MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI))),
        (0.4, MeasureSpec.lebesgue((0.0, TWO_PI))),
    ])
    again = MeasureSpec.from_dict(spec.to_dict())
    assert again == spec
