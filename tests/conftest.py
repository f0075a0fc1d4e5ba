import numpy as np
import pytest

from menshov import MeasureSpec, build_measure, normalize

TWO_PI = 2.0 * np.pi


def cantor_coefficient_oracle(freqs, levels=40):
    """Truncated infinite-product formula for the Cantor measure transform.

    hat(mu_C)(j) = exp(-pi i j) * prod_{k=1..levels} cos(2 pi j / 3^k).
    Independent of the quadrature path used by the library.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    prods = np.prod(np.cos(2.0 * np.pi
                           * np.outer(freqs, 1.0 / 3.0 ** np.arange(1, levels + 1))),
                    axis=1)
    return np.exp(-1j * np.pi * freqs) * prods


def exact_hat(spec, freqs):
    """Exact transform nu_hat(f) = integral e^{-2 pi i f t} dnu(t) of spec
    normalized over its full domain: nu is the image of spec on [0, 1] under
    t = (x - u) / (v - u), divided by its total mass.  Closed forms, no
    quadrature: a uniform piece of mass m on [t0, t1] gives
    m e^{-i pi f (t0 + t1)} sinc(f (t1 - t0)), an atom the case t0 = t1."""
    f = np.asarray(freqs, dtype=float)
    return _raw_hat(spec, f) / _raw_hat(spec, np.zeros(1))[0].real


def _raw_hat(spec, f):
    """Transform of spec's image on [0, 1], not normalized."""
    u, v = spec.domain
    if spec.kind == "lebesgue":  # zero at every integer f != 0
        return spec.scale * (v - u) * (f == 0).astype(complex)
    if spec.kind == "mixture":
        return sum(w * _raw_hat(s, f) for w, s in spec.components)
    if spec.kind == "cantor":  # uniform on the 2^levels level intervals
        k = 2.0 * np.pi * np.outer(f, 3.0 ** -np.arange(1, spec.levels + 1))
        s = 3.0 ** -spec.levels
        return (spec.total * np.prod(np.exp(-1j * k) * np.cos(k), axis=1)
                * np.exp(-1j * np.pi * f * s) * np.sinc(f * s))
    if spec.kind == "atomic":
        rows = [(p, p, m) for p, m in spec.atoms]
    else:  # cdf_table: a uniform piece per row pair, an atom per repeated x
        rows = [(x0, x1, F1 - F0) for (x0, F0), (x1, F1)
                in zip(spec.table, spec.table[1:])]
    x0, x1, m = np.array(rows, dtype=float).T
    t0, t1 = (x0 - u) / (v - u), (x1 - u) / (v - u)
    return (np.exp(-1j * np.pi * np.outer(f, t0 + t1))
            * np.sinc(np.outer(f, t1 - t0))) @ m


def brute_force_atoms(measure, refinement=2**20, tol=None):
    """Oracle: scan the CDF for jumps on a uniform grid of width 2^-20."""
    u, v = measure.domain
    if tol is None:
        tol = 1e-6 * measure.total_mass
    xs = np.linspace(u, v, refinement + 1)
    F = measure.interval_mass(u, xs)
    jumps = np.diff(F)
    idx = np.flatnonzero(jumps > tol)
    return [(float((xs[i] + xs[i + 1]) / 2.0), float(jumps[i])) for i in idx]


# one measure of each kind; three of them have atoms
FIVE_KINDS = [
    MeasureSpec.lebesgue((0.0, 1.0), 2.0),
    MeasureSpec.atomic([(0.25, 0.5), (0.5, 1.0), (0.6, 0.25)]),
    MeasureSpec.cantor(40),
    MeasureSpec.cdf_table([(0.0, 0.0), (0.3, 0.2), (0.3, 0.5), (1.0, 1.0)]),
    MeasureSpec.mixture([(0.7, MeasureSpec.cantor(40)),
                         (0.3, MeasureSpec.atomic([(0.5, 1.0)]))]),
]


@pytest.fixture(scope="session")
def cantor40():
    return build_measure(MeasureSpec.cantor(40))


@pytest.fixture(scope="session")
def cantor40_norm(cantor40):
    return normalize(cantor40, (0.0, 1.0))


@pytest.fixture(scope="session")
def cantor40_2pi():
    return build_measure(MeasureSpec.cantor(40, 1.0, (0.0, TWO_PI)))


@pytest.fixture(scope="session")
def lebesgue_2pi():
    return build_measure(MeasureSpec.lebesgue((0.0, TWO_PI)))


@pytest.fixture(scope="session")
def lebesgue_unit_norm():
    return normalize(build_measure(MeasureSpec.lebesgue((0.0, 1.0))), (0.0, 1.0))
