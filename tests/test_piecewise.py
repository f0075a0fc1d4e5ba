import numpy as np
import pytest

from menshov import PiecewiseLinearFn, StepFunction, fourier_partial_sums

TWO_PI = 2.0 * np.pi


def triangle_wave():
    """Even triangle: 0 at 0 and 2pi, peak pi/ at center... actually
    f(t) = pi - |t - pi| on [0, 2pi], whose Fourier coefficients are known:
    c_0 = pi/2, c_n = ((-1)^n - 1)/(pi n^2) = -2/(pi n^2) for odd n, 0 even.
    """
    return PiecewiseLinearFn([0.0, np.pi, TWO_PI], [0.0, np.pi, 0.0])


def test_evaluation_and_compact_support():
    f = PiecewiseLinearFn([1.0, 2.0, 3.0], [0.0, 4.0, 0.0])
    assert f(1.5) == pytest.approx(2.0)
    assert f(0.5) == 0.0 and f(3.5) == 0.0
    assert (f.xs[0], f.xs[-1]) == (1.0, 3.0)
    assert f.integral() == pytest.approx(4.0)


def test_integral_to_matches_dense_riemann():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0.0, TWO_PI, size=12))
    xs[0], xs[-1] = 0.1, 6.0
    ys = rng.uniform(-3.0, 3.0, size=12)
    f = PiecewiseLinearFn(xs, ys)
    grid = np.linspace(0.0, TWO_PI, 2_000_001)
    dense = np.concatenate([[0.0], np.cumsum(f((grid[:-1] + grid[1:]) / 2.0))
                            * np.diff(grid)])
    for xi in (0.5, 2.0, 4.4, 6.28):
        i = int(np.searchsorted(grid, xi))
        assert f.integral_to(xi) == pytest.approx(dense[i], abs=1e-5)


def test_running_integral_extrema_cover_true_sup():
    f = PiecewiseLinearFn([0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 1.0, -1.0])
    cand_x, cand_v = f.running_integral_extrema()
    sup = np.max(np.abs(cand_v))
    grid = np.linspace(-0.5, 3.5, 400_001)
    dense = np.max(np.abs(f.integral_to(grid)))
    assert sup == pytest.approx(dense, abs=1e-8)
    assert sup >= dense - 1e-12  # candidates never miss the true extremum


def extrema_loop(f):
    """Per-segment candidate loop: reference for running_integral_extrema."""
    cand_x, cand_v = [f.xs[0]], [0.0]
    for i in range(f.xs.size - 1):
        x0, x1, y0, y1 = f.xs[i], f.xs[i + 1], f.ys[i], f.ys[i + 1]
        if y0 * y1 < 0:
            xc = x0 + y0 / (y0 - y1) * (x1 - x0)
            cand_x.append(xc)
            cand_v.append(f.antideriv[i] + y0 * (xc - x0) / 2.0)
        cand_x.append(x1)
        cand_v.append(f.antideriv[i + 1])
    return np.array(cand_x), np.array(cand_v)


def test_running_integral_extrema_match_segment_loop():
    rng = np.random.default_rng(29)
    for _ in range(50):
        xs = np.cumsum(rng.uniform(0.01, 1.0, int(rng.integers(2, 30))))
        ys = rng.normal(size=xs.size)
        ys[rng.random(xs.size) < 0.2] = 0.0  # zeros: touching, not crossing
        f = PiecewiseLinearFn(xs, ys)
        got, want = f.running_integral_extrema(), extrema_loop(f)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_fourier_coefficients_triangle_oracle():
    f = triangle_wave()
    N = 25
    coeffs = f.fourier_coefficients(N)
    assert coeffs[0] == pytest.approx(np.pi / 2.0, abs=1e-14)
    n = np.arange(1, N + 1)
    oracle = ((-1.0) ** n - 1.0) / (np.pi * n**2)
    assert np.max(np.abs(coeffs[1:] - oracle)) < 1e-13


def test_fourier_coefficients_match_dense_quadrature():
    f = PiecewiseLinearFn([0.5, 1.5, 2.0, 5.0], [0.0, 2.0, -1.0, 0.0])
    coeffs = f.fourier_coefficients(8)
    t = np.linspace(0.0, TWO_PI, 400_001)
    mid = (t[:-1] + t[1:]) / 2.0
    fm = f(mid)
    dt = np.diff(t)
    for n in range(9):
        riemann = np.sum(fm * np.exp(-1j * n * mid) * dt) / TWO_PI
        assert abs(coeffs[n] - riemann) < 1e-8


def test_partial_sums_converge_uniformly_for_triangle():
    f = triangle_wave()
    x = np.linspace(0.0, TWO_PI, 1001)
    coeffs = f.fourier_coefficients(200)
    sums = fourier_partial_sums(coeffs, x)
    errs = np.max(np.abs(sums - f(x)[None, :]), axis=1)
    assert errs[200] < errs[10] < errs[1]
    # tail error of the triangle series is sum_{odd n > N} 4/(pi n^2) ~ 2/(pi N)
    for N in (50, 100, 200):
        assert errs[N] <= 2.0 / (np.pi * N) * 1.1


def test_partial_sums_shape_and_n0():
    coeffs = np.array([1.5 + 0j, 0.25 + 0.1j])
    x = np.linspace(0.0, TWO_PI, 7)
    sums = fourier_partial_sums(coeffs, x)
    assert sums.shape == (2, 7)
    assert np.allclose(sums[0], 1.5)


def test_step_function_basics():
    phi = StepFunction.equal_cells((0.0, TWO_PI), [1.0, -2.0, 3.0])
    assert phi.num_cells == 3
    assert phi.is_equal_length()
    assert phi(0.1) == 1.0
    assert phi(np.pi) == -2.0
    assert phi(TWO_PI) == 3.0  # right endpoint belongs to the last cell


def test_step_function_unequal_cells_flagged():
    phi = StepFunction([0.0, 1.0, 4.0], [2.0, 5.0])
    assert not phi.is_equal_length()
    assert phi(2.0) == 5.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearFn([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        PiecewiseLinearFn([0.0], [1.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least one value"):
        StepFunction([0.0], [])
