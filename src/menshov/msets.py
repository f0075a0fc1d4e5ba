"""M-sets, their measures, pushforward arc masses, and convergence scans.

An M-set of I = [a, b] with parameters (n, sigma, tau) is the union of n
equal closed intervals, one per block [a + k(b-a)/n, a + (k+1)(b-a)/n],
each occupying the width fraction tau at offset sigma inside its block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fourier import IndexSet
from .measures import _CDF_CHUNK, Measure

__all__ = [
    "MSetSpec",
    "mset_masses",
    "pushforward_arc_mass",
    "proposition_scan",
    "ConvergenceScan",
]

MAX_BATCH_INTERVALS = _CDF_CHUNK  # intervals of one group


@dataclass(frozen=True)
class MSetSpec:
    """(I, n, sigma, tau) data of an M-set."""

    interval: tuple[float, float]
    n: int
    sigma: float
    tau: float

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise ValueError("interval must have positive length")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (self.sigma >= 0 and self.tau > 0
                and self.sigma + self.tau <= 1):  # refuses NaN too
            raise ValueError("need finite sigma >= 0, tau > 0, sigma + tau <= 1")


def _interval_ends(interval, ns, sigma: float, tau: float):
    """Left and right ends of every interval of the A_n of I, n by n in ns.

    Interval k of A_n is [a + (k + sigma) * w, a + ((k + sigma) + tau) * w]
    with w = (b - a) / n, both ends clamped to b: with sigma + tau = 1 the
    last end can round past b.  One vectorized pass over all of ns; in-place
    steps keep the temporaries to one repeated per-n column at a time.
    """
    a, b = float(interval[0]), float(interval[1])
    left = np.arange(np.sum(ns), dtype=float)
    left -= np.repeat(np.cumsum(ns) - ns, ns)  # k, the block within its A_n
    left += sigma
    right = left + tau
    w = np.repeat((b - a) / np.asarray(ns), ns)
    left *= w
    right *= w
    del w
    left += a
    right += a
    np.minimum(left, b, out=left)
    np.minimum(right, b, out=right)
    return left, right


def mset_masses(mu: Measure, interval, ns, sigma: float,
                tau: float) -> np.ndarray:
    """Total mu-mass of A_n of (interval, n, sigma, tau) for each n in ns.

    Consecutive A_n are cut into groups of at most MAX_BATCH_INTERVALS
    intervals (a larger A_n is a group on its own), each one interval_mass
    call, run one after another in the calling thread; each mass is the sum
    over the A_n's own slice, which adds in the order of that A_n evaluated
    alone.  One group at a time bounds the temporaries: the criterion-2 scan
    (31 groups, 2M intervals) peaks at 5.4 MB under tracemalloc.
    """
    ns = np.asarray(ns)
    MSetSpec(interval, int(ns.min(initial=1)), sigma, tau)  # any n < 1 too
    u, v = mu.domain
    if not (u <= interval[0] and interval[1] <= v):
        raise DomainError("M-set interval outside measure domain")
    ends = np.concatenate([[0], np.cumsum(ns)])  # interval offset per A_n
    masses = np.empty(ns.size)
    i = 0
    while i < ns.size:
        # the longest run from A_n i within the cap, at least A_n i
        j = max(i + 1, int(np.searchsorted(
            ends, ends[i] + MAX_BATCH_INTERVALS, side="right")) - 1)
        cell = mu.interval_mass(*_interval_ends(interval, ns[i:j], sigma, tau))
        off = ends[i:j + 1] - ends[i]
        masses[i:j] = [np.add.reduce(cell[a:b])
                       for a, b in zip(off[:-1], off[1:])]
        i = j
    return masses


def pushforward_arc_mass(nu: Measure, n: int, sigma: float,
                         tau: float) -> float:
    """Mass of the arc {exp(2 pi i t) : t in [sigma, sigma + tau]} under the
    distribution of x -> exp(2 pi i n x).

    Equals nu({x : frac(n x) in [sigma, sigma + tau]}), computed as the sum
    of nu([(k + sigma)/n, (k + sigma + tau)/n]) over k = 0..n-1.
    """
    MSetSpec((0.0, 1.0), n, sigma, tau)  # refuses bad n, sigma, tau
    if nu.domain != (0.0, 1.0):
        raise ValueError("pushforward expects a measure on [0, 1]")
    k = np.arange(n)
    left = (k + sigma) / n
    right = (k + sigma + tau) / n
    return float(np.sum(nu.interval_mass(left, np.minimum(right, 1.0))))


@dataclass(eq=False)  # == on the array fields is ambiguous
class ConvergenceScan:
    """mu(A_n) along an index set, against the limit tau * mu(I)."""

    ns: np.ndarray
    masses: np.ndarray
    errors: np.ndarray
    target: float
    tail_sup: float

    def rows(self):
        return list(zip(self.ns.tolist(), self.masses.tolist(),
                        self.errors.tolist()))


def proposition_scan(mu: Measure, interval, sigma: float, tau: float,
                     lam: IndexSet) -> ConvergenceScan:
    """Evaluate mu(A_n) for every n in lam and report |mu(A_n) - tau mu(I)|.

    tail_sup is the sup of the error over the last quartile of the horizon
    (falling back to the last quartile of the members if that slice is empty).
    """
    ns = lam.members[lam.members >= 1]
    if ns.size == 0:
        raise ValueError("index set has no usable members (n >= 1)")
    a, b = float(interval[0]), float(interval[1])
    target = tau * float(mu.interval_mass(a, b))
    masses = mset_masses(mu, (a, b), ns, sigma, tau)
    errors = np.abs(masses - target)
    tail = errors[ns >= 0.75 * lam.horizon]
    if tail.size == 0:
        tail = errors[3 * ns.size // 4:]
    return ConvergenceScan(ns, masses, errors, target, float(tail.max()))
