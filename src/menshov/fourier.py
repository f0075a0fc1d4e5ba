"""Fourier-Stieltjes coefficients, Wiener averages, and density-1 index sets.

Coefficients of a probability measure nu on [0,1] are

    nu_hat(j) = integral over [0,1] of exp(-2*pi*i*j*t) dnu(t).

Atoms are summed exactly; the continuous CDF part is integrated by a
midpoint Riemann-Stieltjes rule whose certified error bound is the phase
variation per cell times the continuous mass per cell, summed.  `spectrum`
evaluates the CDF once on the power-of-two grid the highest frequency
needs; each batch of frequencies then reads its cell masses from that one
pass and gets all its coefficients from a single real FFT.

`build_lambda` decides index-set membership coarse to fine: it refines
one `Spectrum` (`Spectrum.refined` evaluates the CDF only at the new
points) until every frequency is decided, with its `refinement` argument
as the ceiling.  A grid above MAX_GRID_CELLS is refused from the ceiling
grid, before any CDF point is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AtomicMeasureError, QuadratureError
from .measures import Measure, atomic_part

__all__ = [
    "IndexSet",
    "Spectrum",
    "spectrum",
    "wiener_scan",
    "wiener_average",
    "build_lambda",
]

DEFAULT_REFINEMENT = 512
START_REFINEMENT = 8  # build_lambda's first level, when the ceiling is higher
CERTIFY_LIMIT = 0.5  # an error bound above this makes a coefficient unusable
MAX_GRID_CELLS = 1 << 24  # larger grids' CDF and FFT temporaries need GBs
DENSITY_FLOOR = 0.5  # build_lambda warns below DENSITY_FLOOR / m


def _check_probability(nu: Measure):
    if abs(nu.total_mass - 1.0) > 1e-9 or nu.domain != (0.0, 1.0):
        raise ValueError("expected a probability measure on [0, 1]; "
                         "normalize the measure first")


def _atom_sum(nu: Measure, freqs):
    """Exact atomic contribution sum(mass * exp(-2 pi i f p)) per frequency."""
    if nu.atom_positions.size == 0:
        return 0.0
    f = np.asarray(freqs, dtype=float)
    phase = np.exp(-2j * np.pi * np.outer(f, nu.atom_positions))
    return phase @ nu.atom_masses


def _grid_cells(f: int, refinement: int) -> int:
    """Power-of-2 cell count with at least refinement * max(1, f) cells."""
    return 1 << int(np.ceil(np.log2(max(refinement * max(1, f), 1024))))


def _checked_grid(f_max: int, refinement: int) -> int:
    """_grid_cells(f_max, refinement); QuadratureError above MAX_GRID_CELLS."""
    grid = _grid_cells(f_max, refinement)
    if grid > MAX_GRID_CELLS:
        raise QuadratureError(
            f"f_max={f_max} at refinement {refinement} needs a {grid}-cell "
            f"grid, above the {MAX_GRID_CELLS}-cell limit")
    return grid


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Continuous CDF of a probability measure on the grid its f_max needs.

    Every power-of-2 grid an f <= f_max needs has edges at every stride-th
    fine edge; dyadic linspace edges are exact and every CDF is evaluated
    point by point, so a coarser grid read from `cdf` has bitwise the cell
    masses of a fresh pass on that grid.
    """

    measure: Measure
    f_max: int
    refinement: int
    cdf: np.ndarray

    def coefficients(self, freqs, top: int | None = None):
        """(values, error_bounds) at nonnegative integer frequencies <= f_max.

        Uses the grid frequency `top` (default max(freqs)) needs, so the
        certified bound at each frequency f is 2*pi*f/grid * (continuous
        mass).
        """
        freqs = np.asarray(freqs, dtype=np.int64)
        if top is None:
            top = int(freqs.max()) if freqs.size else 0
        if np.any(freqs < 0) or np.any(freqs > top) or top > self.f_max:
            raise ValueError(f"frequencies must lie in [0, top] and top in "
                             f"[0, {self.f_max}]; use conjugate symmetry "
                             "for negative ones")
        grid = _grid_cells(top, self.refinement)
        stride = (self.cdf.size - 1) // grid
        rfft = np.fft.rfft(np.diff(self.cdf[::stride]))
        vals = rfft[freqs] * np.exp(-1j * np.pi * freqs / grid)
        vals = vals + _atom_sum(self.measure, freqs)
        errs = 2.0 * np.pi * freqs / grid * self.measure.cont_total
        return vals, errs

    def refined(self, refinement: int) -> "Spectrum":
        """This spectrum at a refinement at least its own: bitwise the `cdf`
        of spectrum(measure, f_max, refinement), each point evaluated once.

        Each doubling of the grid evaluates the CDF only at the new odd
        points (2i+1)/(2g) and interleaves them with the existing values,
        which are the even points of the fine grid (see the class
        docstring).  Raises QuadratureError, before evaluating anything,
        when the grid would exceed MAX_GRID_CELLS cells.
        """
        grid = _checked_grid(self.f_max, refinement)
        cdf = self.cdf
        while cdf.size - 1 < grid:
            g = cdf.size - 1
            fine = np.empty(2 * g + 1)
            fine[0::2] = cdf
            fine[1::2] = self.measure.cont(np.arange(1.0, 2 * g, 2.0) / (2 * g))
            cdf = fine
        cdf.setflags(write=False)
        return Spectrum(self.measure, self.f_max, refinement, cdf)


def spectrum(nu: Measure, f_max: int,
             refinement: int = DEFAULT_REFINEMENT) -> Spectrum:
    """Evaluate the continuous CDF of nu once, for frequencies 0..f_max.

    Raises QuadratureError, before evaluating anything, when the grid
    would exceed MAX_GRID_CELLS cells.
    """
    _check_probability(nu)
    f_max = int(f_max)
    grid = _checked_grid(f_max, refinement)
    cdf = nu.cont(np.linspace(0.0, 1.0, grid + 1))
    cdf.setflags(write=False)
    return Spectrum(nu, f_max, refinement, cdf)


def wiener_scan(nu: Measure, k: int, N: int,
                refinement: int = DEFAULT_REFINEMENT):
    """|nu_hat(n*k)|, error bounds and running Cesaro averages of
    |nu_hat(n*k)|^2 for n = 0..N; QuadratureError past CERTIFY_LIMIT."""
    if k == 0:
        raise ValueError("k must be nonzero")
    freqs = abs(k) * np.arange(N + 1)
    vals, errs = spectrum(nu, abs(k) * N, refinement).coefficients(freqs)
    if errs.max() > CERTIFY_LIMIT:
        raise QuadratureError("coefficient error bound exceeds certification limit")
    absv = np.abs(vals)
    return absv, errs, np.cumsum(absv**2) / np.arange(1, N + 2)


def wiener_average(nu: Measure, k: int, N: int,
                   refinement: int = DEFAULT_REFINEMENT) -> float:
    """Cesaro average of |nu_hat(n*k)|^2 over n = 0..N."""
    return float(np.mean(wiener_scan(nu, k, N, refinement)[0] ** 2))


# ---------------------------------------------------------------------------
# Index sets

class Level(NamedTuple):
    """One refinement level visited by build_lambda.

    `decided_in` and `decided_out` count the candidates (multiples of m up
    to the horizon) first decided at this level; `undecided` counts those
    left for the next level, and is 0 at the last.
    """

    refinement: int
    grid_cells: int
    decided_in: int
    decided_out: int
    undecided: int


@dataclass(frozen=True, eq=False)  # == on the members array is ambiguous
class IndexSet:
    """A certified subset of {0..horizon}, with its density and the
    refinement levels that decided it."""

    members: np.ndarray
    horizon: int
    density: float
    levels: tuple[Level, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "members",
                           np.asarray(self.members, dtype=np.int64))

    def __len__(self):
        return int(self.members.size)

    def __iter__(self):
        return iter(self.members.tolist())


def build_lambda(nu: Measure, K: int, J: int, N_max: int, m: int = 1,
                 refinement: int = DEFAULT_REFINEMENT) -> IndexSet:
    """Certified subset of the intersection of all Lambda_{j,k}, j<=J, |k|<=K,
    restricted to multiples of m.

    This is the finite-horizon version of the density-1 diagonal argument.
    Lambda_{J,k} is the smallest over j <= J, so n is a member when
    |nu_hat(kn)| <= 1/J is certified for every k <= K.  Membership is
    decided coarse to fine, on levels from min(START_REFINEMENT, refinement)
    doubling up to the ceiling `refinement`.  Each level reads |v| and its
    bound e on the grids _grid_cells(k * N_max, level), only for the pairs
    (n, k) not yet certified: a pair is certified when |v| + e <= 1/J, and
    n is *in* once all its K pairs are, *out* as soon as |v| - e > 1/J for
    one of them.  At the ceiling every pair left is certified or puts n
    out.  Each bound holds at every level, so a member's pairs may be
    certified at different levels.  Refuses atomic measures, for which the
    Wiener averages do not vanish.
    """
    _check_probability(nu)
    if min(K, J, m) < 1:
        raise ValueError("K, J, m must be positive integers")
    atoms = atomic_part(nu)
    if atoms:
        raise AtomicMeasureError(
            f"measure has {len(atoms)} atom(s) above tolerance; "
            "Wiener averages cannot vanish and no density-1 set is certifiable")

    _checked_grid(K * N_max, refinement)  # refuse from the ceiling grid
    undecided = np.arange(0, N_max + 1, m)
    pending = np.ones((K, undecided.size), dtype=bool)  # pairs not certified
    decided, levels = [], []
    level = min(START_REFINEMENT, refinement)
    spec = spectrum(nu, K * N_max, level)
    while True:
        out = np.zeros(undecided.size, dtype=bool)
        # |nu_hat(-f)| = |nu_hat(f)|: negative k give the same sets as positive k
        for k in range(1, K + 1):
            idx = np.flatnonzero(pending[k - 1])
            if idx.size == 0:
                continue  # no FFT for a k with every pair certified
            vals, errs = spec.coefficients(k * undecided[idx], top=k * N_max)
            absv = np.abs(vals)
            small = absv + errs <= 1.0 / J
            pending[k - 1, idx[small]] = False
            large = ~small if level >= refinement else absv - errs > 1.0 / J
            out[idx[large]] = True
        inside = ~pending.any(axis=0)
        decided.append(undecided[inside])
        keep = ~(inside | out)
        undecided, pending = undecided[keep], pending[:, keep]
        levels.append(Level(level, spec.cdf.size - 1,
                            int(np.count_nonzero(inside)),
                            int(np.count_nonzero(out)), int(undecided.size)))
        if undecided.size == 0:
            break
        level = min(2 * level, refinement)
        spec = spec.refined(level)
    members = np.sort(np.concatenate(decided))
    density = members.size / (N_max + 1)
    warnings = ()
    if density < DENSITY_FLOOR / m:
        warnings = (f"density {density:.4f} below floor {DENSITY_FLOOR}/m",)
    return IndexSet(members, N_max, density, tuple(levels), warnings)
