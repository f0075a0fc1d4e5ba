"""Fourier-Stieltjes coefficients, Wiener averages, and density-1 index sets.

Coefficients of a probability measure nu on [0,1] are

    nu_hat(j) = integral over [0,1] of exp(-2*pi*i*j*t) dnu(t).

Atoms are summed exactly; the continuous CDF part is integrated by a
midpoint Riemann-Stieltjes rule.  Its certified error bound at frequency f
is pi*f/grid times the continuous mass, the midpoint rule's own bound,
plus an a-priori bound on floating-point rounding, evaluated rounded up
(see `Spectrum.coefficients`).  `spectrum` evaluates the CDF once on the
power-of-two grid the highest frequency needs; any batch of frequencies
gets its coefficients from one real FFT.

`build_lambda` decides index-set membership coarse to fine: it refines
one `Spectrum` (`Spectrum.refined` evaluates the CDF only at the new
points), one FFT per level, until every frequency is decided, with its
`refinement` argument as the ceiling.  A grid above MAX_GRID_CELLS is
refused from the ceiling grid, before any CDF point is evaluated, and
more than MAX_PAIRS pairs (n, k) before any is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError
from .measures import Measure

__all__ = [
    "IndexSet",
    "Spectrum",
    "spectrum",
    "wiener_scan",
    "build_lambda",
]

DEFAULT_REFINEMENT = 512
START_REFINEMENT = 8  # build_lambda's first level, when the ceiling is higher
CERTIFY_LIMIT = 0.5  # an error bound above this makes a coefficient unusable
MAX_GRID_CELLS = 1 << 24  # larger grids' CDF and FFT temporaries need GBs
# build_lambda's (n, k) pairs; 105 B per pair under tracemalloc at
# refinement 2, so 0.44 GB at this limit
MAX_PAIRS = 1 << 22
_ATOM_BLOCK = 1 << 14  # phase entries per slice of _atom_sum
DENSITY_FLOOR = 0.5  # build_lambda warns below DENSITY_FLOOR / m
_U = np.finfo(float).eps / 2  # unit roundoff: |fl(x) - x| <= _U |x|
_PI_UP = np.nextafter(np.pi, 4.0)  # np.pi is below pi; this is above it
# e is a sum of products of nonnegative doubles, at most 10 roundings deep;
# one more product by 1 + 16 _U puts it above its exact value
_ROUND_UP = 1.0 + 16 * _U


def _atom_sum(nu: Measure, freqs):
    """Exact atomic contribution sum(mass * exp(-2 pi i f p)) per frequency.

    Runs on slices of about _ATOM_BLOCK // atoms frequencies, at least 3
    each: from 3 rows up a slice's product is bitwise that of one product
    over all frequencies, while slices of 1 or 2 rows may round otherwise.
    """
    pos, mas = nu.atom_positions, nu.atom_masses
    if pos.size == 0:
        return 0.0
    f = np.asarray(freqs, dtype=float).reshape(-1)
    out = np.empty(f.size, dtype=complex)
    rows, start = max(3, _ATOM_BLOCK // pos.size), 0
    for stop in [*range(rows, f.size - 2, rows), f.size]:  # last >= 3 rows
        phase = np.exp(-2j * np.pi * np.outer(f[start:stop], pos))
        out[start:stop] = phase @ mas
        start = stop
    return out


def _grid_cells(f: int, refinement: int) -> int:
    """Power-of-2 cell count with at least refinement * max(1, f) cells."""
    cells = max(int(refinement) * max(1, int(f)), 1024)
    return 1 << (cells - 1).bit_length()


def _checked_grid(f_max: int, refinement: int) -> int:
    """_grid_cells(f_max, refinement); ValueError below refinement 2 (an
    FFT up to f_max needs 2 * f_max cells), QuadratureError above
    MAX_GRID_CELLS."""
    if refinement < 2:
        raise ValueError(f"refinement must be at least 2, got {refinement}")
    grid = _grid_cells(f_max, refinement)
    if grid > MAX_GRID_CELLS:
        raise QuadratureError(
            f"f_max={f_max} at refinement {refinement} needs a {grid}-cell "
            f"grid, above the {MAX_GRID_CELLS}-cell limit")
    return grid


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Continuous CDF of a probability measure on the grid its f_max needs.

    Dyadic linspace edges are exact and every CDF is evaluated point by
    point, so a refined `cdf` is bitwise that of a fresh pass.
    """

    measure: Measure
    f_max: int
    cdf: np.ndarray

    def coefficients(self, freqs):
        """(values, error_bounds) at frequencies in [0, f_max], from one real
        FFT of the grid's cell masses.  freqs must have an integer dtype:
        3.0 is refused like 0.9.

        The bound at frequency f is e(f) = pi f h C + rho(f), h = 1/grid
        and C the continuous mass, evaluated rounded up (_PI_UP, _ROUND_UP).

        Midpoint term: cell j's mass is weighted by w_j = e^{-2 pi i f t_j}
        at its midpoint t_j.  A point of the cell is within h/2 of t_j and
        |e^{ia} - e^{ib}| <= |a - b|, so the cell's error is at most
        pi f h times its mass, pi f h C over all cells.

        rho(f) bounds the rounding, with d = measure.cdf_rounding, A the
        atom mass, n the atom count, L = grid.bit_length() and
        S = C + (2 grid + 1) d, a bound on the sum of |cell mass| as
        computed:
        - CDF values F_j + d_j, |d_j| <= d: by summation by parts their
          error is d_grid w_last - d_0 w_0 - sum d_j (w_j - w_{j-1}), and
          |w_j - w_{j-1}| <= 2 pi f h: at most (2 + 2 pi f) d;
        - C is the CDF at 1 as computed, within d of the exact mass, which
          moves the midpoint term by at most pi f h d <= pi f d;
        - the cell masses round once each: _U S;
        - the real FFT: each of its L - 1 butterfly levels holds partial
          DFTs of subsequences, each at most the subsequence's sum of
          |cell mass|, and feeds an output from disjoint ones; a level's
          twiddle (within 2 _U), complex product (sqrt(2) 2 _U) and sum
          (_U) add at most 6 _U S, and the spare 2 _U S a level covers
          the products of two roundings and the twiddles' growth: 8 L _U S;
        - the shift e^{-i pi f / grid}: its argument rounds by at most
          1.5 pi _U (f <= grid / 2), exp by 2 _U, the product by 3 _U: 10 _U S;
        - the atom sum: 2 pi f p rounds by at most 5 pi f _U (p in [0, 1]),
          exp by 2 _U, the dot product of n terms by 2 (n + 2) _U:
          (5 pi f + 2 n + 6) _U A;
        - the sum of the two parts: _U (S + A).
        So rho(f) = (2 + 3 pi f) d + _U (S (8 L + 12) + A (5 pi f + 2 n + 7)).
        The rounding of the CDF's input maps is not counted (see
        `Measure`); it is none on [0, 1].
        """
        freqs = np.asarray(freqs)
        if freqs.dtype.kind not in "iu":
            raise ValueError("frequencies must have an integer dtype, got "
                             f"{freqs.dtype}")
        if np.any(freqs < 0) or np.any(freqs > self.f_max):
            raise ValueError(f"frequencies must lie in [0, {self.f_max}]; use "
                             "conjugate symmetry for negative ones")
        freqs = freqs.astype(np.int64)
        nu, grid = self.measure, self.cdf.size - 1
        rfft = np.fft.rfft(np.diff(self.cdf))
        vals = rfft[freqs] * np.exp(-1j * np.pi * freqs / grid)
        vals = vals + _atom_sum(nu, freqs)
        d, f = nu.cdf_rounding, _PI_UP * freqs
        S, A = nu.cont_total + (2 * grid + 1) * d, float(nu.atom_masses.sum())
        rho = (2.0 + 3.0 * f) * d + _U * (
            S * (8 * grid.bit_length() + 12)
            + A * (5.0 * f + 2 * nu.atom_masses.size + 7))
        errs = (f / grid * nu.cont_total + rho) * _ROUND_UP
        return vals, errs

    def refined(self, refinement: int) -> "Spectrum":
        """This spectrum on a grid at least as fine: bitwise the `cdf` of
        spectrum(measure, f_max, refinement), each point evaluated once.

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
        return Spectrum(self.measure, self.f_max, cdf)


def spectrum(nu: Measure, f_max: int,
             refinement: int = DEFAULT_REFINEMENT) -> Spectrum:
    """Evaluate the continuous CDF of nu once, for frequencies 0..f_max.

    Raises QuadratureError, before evaluating anything, when the grid
    would exceed MAX_GRID_CELLS cells.
    """
    # Tells a normalized measure from a raw one; no certificate rests on it:
    # coefficients and bounds are those of nu as given.  normalize's total
    # missed 1 by at most 2.2e-16 in 3,000 random outputs of all five kinds,
    # atoms left of the interval included.
    if abs(nu.total_mass - 1.0) > 1e-9 or nu.domain != (0.0, 1.0):
        raise ValueError("expected a probability measure on [0, 1]; "
                         "normalize the measure first")
    f_max = int(f_max)
    grid = _checked_grid(f_max, refinement)
    cdf = nu.cont(np.linspace(0.0, 1.0, grid + 1))
    cdf.setflags(write=False)
    return Spectrum(nu, f_max, cdf)


def wiener_scan(nu: Measure, k: int, N: int,
                refinement: int = DEFAULT_REFINEMENT):
    """|nu_hat(n*k)|, error bounds and running Cesaro averages of
    |nu_hat(n*k)|^2 for n = 0..N; QuadratureError past CERTIFY_LIMIT."""
    if not 0 < abs(k) <= MAX_GRID_CELLS:
        raise ValueError(f"k must be nonzero and at most {MAX_GRID_CELLS} "
                         f"in absolute value, got {k}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    spec = spectrum(nu, abs(k) * N, refinement)  # refuses a large N first
    vals, errs = spec.coefficients(abs(k) * np.arange(N + 1))
    if errs.max() > CERTIFY_LIMIT:
        raise QuadratureError("coefficient error bound exceeds certification limit")
    absv = np.abs(vals)
    return absv, errs, np.cumsum(absv**2) / np.arange(1, N + 2)


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


def build_lambda(nu: Measure, K: int, J: int, N_max: int, m: int = 1,
                 refinement: int = DEFAULT_REFINEMENT) -> IndexSet:
    """Certified subset of the intersection of all Lambda_{j,k}, j<=J, |k|<=K,
    restricted to multiples of m.

    This is the finite-horizon version of the density-1 diagonal argument.
    Lambda_{J,k} is the smallest over j <= J, so n is a member when
    |nu_hat(kn)| <= 1/J is certified for every k <= K.  Membership is
    decided coarse to fine, on levels from min(START_REFINEMENT, refinement)
    doubling up to the ceiling `refinement`.  Each level reads |v| and its
    bound e from one FFT of its grid, only for the pairs (n, k) not yet
    certified: a pair is certified when |v| + e <= 1/J, and n is *in* once
    all its K pairs are, *out* as soon as |v| - e > 1/J for one of them.
    At the ceiling every pair left is certified or puts n out.  Each bound
    holds at every level, so a member's pairs may be certified at
    different levels.  Atoms keep the Wiener averages from vanishing: the
    members stay certified, but `warnings` then says that the M-set masses
    mu(A_n) need not tend to tau mu(I).
    """
    if min(K, J, m) < 1:
        raise ValueError("K, J, m must be positive integers")
    if N_max < 0:
        raise ValueError(f"N_max must be nonnegative, got {N_max}")

    _checked_grid(K * N_max, refinement)  # refuse from the ceiling grid
    pairs = K * (N_max // m + 1)
    if pairs > MAX_PAIRS:
        raise ValueError(f"K={K} and N_max={N_max} at m={m} give {pairs} "
                         f"(n, k) pairs, above the {MAX_PAIRS}-pair limit")
    undecided = np.arange(0, N_max + 1, m)
    pending = np.ones((K, undecided.size), dtype=bool)  # pairs not certified
    decided, levels = [], []
    level = min(START_REFINEMENT, refinement)
    spec = spectrum(nu, K * N_max, level)
    while True:
        # |nu_hat(-f)| = |nu_hat(f)|: negative k give the same sets as positive k
        k, idx = np.nonzero(pending)  # row k holds the pairs of k + 1
        vals, errs = spec.coefficients((k + 1) * undecided[idx])
        absv = np.abs(vals)
        small = absv + errs <= 1.0 / J
        pending[k[small], idx[small]] = False
        large = ~small if level >= refinement else absv - errs > 1.0 / J
        out = np.zeros(undecided.size, dtype=bool)
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
    warnings = []
    if density < DENSITY_FLOOR / m:
        warnings.append(f"density {density:.4f} below floor {DENSITY_FLOOR}/m")
    if nu.atom_masses.size:
        warnings.append(f"measure has {nu.atom_masses.size} atom(s): "
                        "mu(A_n) need not tend to tau mu(I)")
    return IndexSet(members, N_max, density, tuple(levels), tuple(warnings))
