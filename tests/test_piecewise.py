import numpy as np
import pytest

from menshov import (CorrectorParams, PiecewiseLinearFn, StepFunction,
                     build_psi, choose_r, layout, partial_sum_diagnostics)
from menshov import piecewise

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


def dense_running_integral(f, grid):
    """Midpoint Riemann sums of f from grid[0] to every point of grid."""
    mids = f((grid[:-1] + grid[1:]) / 2.0)
    return np.concatenate([[0.0], np.cumsum(mids * np.diff(grid))])


def test_breakpoint_values_match_dense_riemann():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0.0, TWO_PI, size=12))
    xs[0], xs[-1] = 0.1, 6.0
    ys = rng.uniform(-3.0, 3.0, size=12)
    f = PiecewiseLinearFn(xs, ys)
    crossings = np.count_nonzero(ys[:-1] * ys[1:] < 0)
    at_xs = f.running_integral_extrema()[1 + crossings:]
    grid = np.sort(np.concatenate([np.linspace(0.0, TWO_PI, 2_000_001), xs]))
    dense = dense_running_integral(f, grid)[np.searchsorted(grid, xs[1:])]
    assert at_xs == pytest.approx(dense, abs=1e-5)


def test_running_integral_extrema_cover_true_sup():
    f = PiecewiseLinearFn([0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 1.0, -1.0])
    sup = np.max(np.abs(f.running_integral_extrema()))
    grid = np.linspace(-0.5, 3.5, 400_001)
    dense = np.max(np.abs(dense_running_integral(f, grid)))
    assert sup == pytest.approx(dense, abs=1e-8)
    assert sup >= dense - 1e-12  # candidates never miss the true extremum


def extrema_loop(f):
    """Per-segment candidate loop: reference for running_integral_extrema,
    in its order: 0, then the zero crossings, then the breakpoints."""
    at_xs, crossings = [0.0], []
    for i in range(f.xs.size - 1):
        x0, x1, y0, y1 = f.xs[i], f.xs[i + 1], f.ys[i], f.ys[i + 1]
        if y0 * y1 < 0:
            xc = x0 + y0 / (y0 - y1) * (x1 - x0)
            crossings.append(at_xs[i] + y0 * (xc - x0) / 2.0)
        at_xs.append(at_xs[i] + (x1 - x0) * (y0 + y1) / 2.0)  # trapezoid
    return np.array([0.0, *crossings, *at_xs[1:]])


def test_running_integral_extrema_match_segment_loop():
    rng = np.random.default_rng(29)
    for _ in range(50):
        xs = np.cumsum(rng.uniform(0.01, 1.0, int(rng.integers(2, 30))))
        ys = rng.normal(size=xs.size)
        ys[rng.random(xs.size) < 0.2] = 0.0  # zeros: touching, not crossing
        f = PiecewiseLinearFn(xs, ys)
        assert np.array_equal(f.running_integral_extrema(), extrema_loop(f))


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


def test_fourier_coefficients_chunks_equal_one_transform(monkeypatch):
    # transform slices w; each row is bitwise the same in any slice
    default = piecewise._CHUNK_ELEMS
    rng = np.random.default_rng(3)
    xs = np.cumsum(rng.uniform(0.01, 0.3, 40))  # 39 segments, some short
    f = PiecewiseLinearFn(xs, rng.normal(size=xs.size))
    w = np.concatenate([-np.arange(500.0), rng.uniform(-80.0, 80.0, 300)])
    monkeypatch.setattr(piecewise, "_CHUNK_ELEMS", 1 << 30)  # one slice
    one = f.transform(w)[:, 0]
    coeffs = f.transform(-np.arange(501))[:, 0] / TWO_PI
    for elems in (1, 2 * 39, 64 * 39 + 5, default):  # 1, 2, 64, 420 w
        monkeypatch.setattr(piecewise, "_CHUNK_ELEMS", elems)
        assert np.array_equal(f.transform(w)[:, 0].view(np.uint64),
                              one.view(np.uint64))
        assert np.array_equal(f.fourier_coefficients(500).view(np.uint64),
                              coeffs.view(np.uint64))
    assert f.transform([])[:, 0].shape == (0,)


def transform_per_segment(f, omega):
    """transform with phi1, phi2 evaluated at every (w, segment) entry, one
    w per node: the bitwise oracle for the once-per-width evaluation with
    offsets (0,), and the per-node oracle of the offset grid."""
    w = np.asarray(omega, dtype=float)
    a, h = f.xs[:-1], np.diff(f.xs)
    hy1, hdy = h * f.ys[1:], h * (f.ys[:-1] - f.ys[1:])
    out = np.empty(w.size, dtype=complex)
    step = max(1, piecewise._CHUNK_ELEMS // h.size)
    for i in range(0, w.size, step):
        wi = w[i:i + step, None]
        phi1, phi2 = piecewise._phi12(1j * wi * h)
        out[i:i + step] = (np.exp(1j * wi * a)
                           * (hy1 * phi1 + hdy * phi2)).sum(axis=1)
    return out


def test_transform_bitwise_equals_per_segment_oracle(monkeypatch):
    default = piecewise._CHUNK_ELEMS
    rng = np.random.default_rng(31)
    xs = np.cumsum(rng.uniform(0.01, 0.3, 40))  # 39 distinct widths
    eps = 16.0 * TWO_PI / 128  # the nu = 64, r = 2 criterion-6 point
    psi = build_psi(layout(CorrectorParams(0.0, TWO_PI, 1.0, eps, 64, 2)),
                    1.0, 64)
    fns = [PiecewiseLinearFn(xs, rng.normal(size=xs.size)), psi,
           PiecewiseLinearFn(-1.0 + 0.0625 * np.arange(50),  # one width
                             rng.normal(size=50))]
    assert [np.unique(np.diff(f.xs)).size for f in fns] == [39, 15, 1]
    assert psi.xs.size - 1 == 362
    for f in fns:
        # |w h| on both sides of the series switch at 0.5, both signs, 0
        edge = 0.5 / np.diff(f.xs)
        w = np.concatenate([-np.arange(300.0), rng.uniform(-80.0, 80.0, 200),
                            edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)])
        w = np.concatenate([w, -w])
        for elems in (1, default):
            monkeypatch.setattr(piecewise, "_CHUNK_ELEMS", elems)
            for omega in (w, []):
                assert np.array_equal(
                    f.transform(omega)[:, 0].view(np.uint64),
                    transform_per_segment(f, omega).view(np.uint64))


def grid_case(name):
    """The function the offset grid is checked on in case name."""
    if name == "random":  # 39 distinct widths
        rng = np.random.default_rng(34)
        xs = np.cumsum(rng.uniform(0.01, 0.3, 40))
        return PiecewiseLinearFn(xs, rng.normal(size=xs.size))
    d, gamma, eps, nu, r = {
        "nu64-r2": (TWO_PI, 1.0, 16.0 * TWO_PI / 128, 64, 2),
        "support-0-50": (50.0, 1.0, 0.1, 16,
                         choose_r(0.0, 50.0, 1.0, 0.1, 16)),  # 4,538 segments
        "negative-gamma": (TWO_PI, -2.5, 2.5 * TWO_PI, 16, 1)}[name]
    return build_psi(layout(CorrectorParams(0.0, d, gamma, eps, nu, r)),
                     gamma, nu)


@pytest.mark.parametrize("name", ["random", "nu64-r2", "support-0-50",
                                  "negative-gamma"])
def test_transform_grid_within_rounding_of_per_segment_oracle(name,
                                                              monkeypatch):
    # transform(k, offs) takes the node fl(k + o)'s phi1, phi2, so its
    # segment terms C = hy1 phi1 + hdy phi2 are those of the per-node
    # oracle bit for bit, |C| <= 1.5 h (|y0| + |y1|) since |phi1| <= 1 and
    # |phi2| <= 1/2 on the imaginary axis.  With u = 2^-53 and |a| the
    # largest left end:
    # - phase: the oracle rounds fl(k + o) and its product with a, within
    #   2 u |a| |k + o| (1 + u); the grid rounds k a and o a, within
    #   u |a| (|k| + |o|): together 3 u |a| (|k| + |o|) (1 + u) |C|;
    # - exps and products: numpy's exp is within 4 ulp <= 8 u per part,
    #   so 8 sqrt 2 u in modulus, and a complex product within sqrt 5 u:
    #   one exp and one product in the oracle, two exps and two products on
    #   the grid, (24 sqrt 2 + 3 sqrt 5) u |C| <= 41 u |C|;
    # - the sum over the S segments, whole or in blocks: each side within
    #   (S - 1) u sum (|Re| + |Im|) <= 1.5 S u sum |C|.
    # So |grid - oracle| <= u (5 |a| (|k| + |o|) + 5 S + 64) A, with
    # A = sum h (|y0| + |y1|), the spare terms covering products of two
    # roundings.
    f = grid_case(name)
    h = np.diff(f.xs)
    ks = np.array([-64.0, -17.0, -3.0, -1.0, 0.0, 1.0, 2.0, 5.0, 16.0, 63.0])
    edge = 0.5 / np.unique(h)  # |o h| on both sides of the series switch
    gauss = (1.0 + np.polynomial.legendre.leggauss(12)[0]) / 2.0
    offs = np.concatenate([gauss, edge * (1.0 - 1e-12), edge * (1.0 + 1e-12),
                           -edge * (1.0 + 1e-12)])
    got = f.transform(ks, offs)
    want = transform_per_segment(f, (ks[:, None] + offs).ravel())
    mass = float(np.sum(h * (np.abs(f.ys[:-1]) + np.abs(f.ys[1:]))))
    a = float(np.abs(f.xs[:-1]).max())
    bound = (np.finfo(float).eps / 2 * mass
             * (5 * a * (np.abs(ks)[:, None] + np.abs(offs)) + 5 * h.size + 64))
    assert got.shape == (ks.size, offs.size)
    assert np.all(np.abs(got - want.reshape(got.shape)) <= bound)
    # offsets (0,): bitwise the per-segment evaluation
    assert np.array_equal(f.transform(ks).view(np.uint64),
                          transform_per_segment(f, ks)[:, None].view(np.uint64))
    # no value depends on the slicing
    monkeypatch.setattr(piecewise, "_CHUNK_ELEMS", 1)
    assert np.array_equal(f.transform(ks, offs).view(np.uint64),
                          got.view(np.uint64))


def test_partial_sums_converge_uniformly_for_triangle():
    f = triangle_wave()
    errs = dict(partial_sum_diagnostics(f, [1, 10, 50, 100, 200]))
    assert errs[200] < errs[10] < errs[1]
    # tail error of the triangle series is sum_{odd n > N} 4/(pi n^2) ~ 2/(pi N)
    for N in (50, 100, 200):
        assert errs[N] <= 2.0 / (np.pi * N) * 1.1


def test_partial_sums_shape_and_n0():
    f = PiecewiseLinearFn([0.5, 1.5, 2.0, 5.0], [0.0, 2.0, -1.0, 0.0])
    x = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    c0 = f.fourier_coefficients(0)[0].real
    assert partial_sum_diagnostics(f, [0]) == [(0, np.max(np.abs(c0 - f(x))))]


def test_arrays_are_read_only_copies_of_the_inputs():
    xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])
    f = PiecewiseLinearFn(xs, ys)
    for arr in (f.xs, f.ys):
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 3.0
    xs[1], ys[1] = 0.5, 3.0  # the caller's arrays are not f's
    assert f(1.0) == 1.0
    assert f.running_integral_extrema()[-1] == 1.0


def test_step_function_basics():
    phi = StepFunction((0.0, TWO_PI), [1.0, -2.0, 3.0])
    assert phi.num_cells == 3
    assert phi.domain == (0.0, TWO_PI)
    assert np.array_equal(phi.breakpoints, np.linspace(0.0, TWO_PI, 4))
    assert phi(0.1) == 1.0
    assert phi(np.pi) == -2.0
    assert phi(TWO_PI) == 3.0  # right endpoint belongs to the last cell


def test_constructor_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearFn([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        PiecewiseLinearFn([0.0], [1.0])
    for domain in [(1.0, 0.0), (0.0, 0.0), (0.0, np.nan), (-np.inf, 1.0),
                   (0.0, np.inf), (0.0, 0.5, 1.0)]:
        with pytest.raises(ValueError):
            StepFunction(domain, [1.0])
    with pytest.raises(ValueError, match="at least one value"):
        StepFunction((0.0, 1.0), [])
    with pytest.raises(ValueError, match="1-d"):
        StepFunction((0.0, 1.0), [[1.0, 2.0]])
    for bad in [np.nan, np.inf, -np.inf]:
        with pytest.raises(ValueError, match="step values must be finite"):
            StepFunction((0.0, 1.0), [1.0, bad])
        for xs in ([0.0, bad, 1.0], [bad, 0.0, 1.0], [0.0, 1.0, bad]):
            with pytest.raises(ValueError, match="finite and strictly"):
                PiecewiseLinearFn(xs, [0.0, 1.0, 0.0])
        for ys in ([0.0, bad, 0.0], [bad, 1.0, 0.0]):
            with pytest.raises(ValueError, match="values must be finite"):
                PiecewiseLinearFn([0.0, 1.0, 2.0], ys)
    # finite breakpoints whose span overflows: a width of inf made transform
    # return nan+nanj
    for xs in ([-1e308, 1e308], [-1e308, 0.0, 1e308], [-1e308, 1e308, 1.7e308]):
        with pytest.raises(ValueError, match="overflows"):
            PiecewiseLinearFn(xs, np.ones(len(xs)))
    top = np.finfo(float).max
    f = PiecewiseLinearFn([-top / 2, top / 2], [1.0, 1.0])  # span is max
    assert float(f.xs[-1]) - float(f.xs[0]) == top
