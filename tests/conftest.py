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
