"""Assembling per-cell correctors into the certified large set E, and a
single-round demo of the correction pipeline.

The pipeline partitions [0, 2 pi] into rho * kappa equal cells, applies the
corrector construction in each cell, and certifies

    mu(E) >= (1 - 7/nu) mu([0, 2 pi])

by direct measure computation, choosing kappa from the union-level M-set
(tau = 1 - 4/nu, target 1 - 5/nu) and r per cell by measuring the corrector
layout it builds (mu(E_k) over mu([a', b']), target 1 - 2/nu).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .corrector import (CorrectorLayout, CorrectorParams, build_psi,
                        check_corrector, choose_r, layout)
from .errors import AtomicMeasureError, QuadratureError
from .fourier import DEFAULT_REFINEMENT, build_lambda
from .measures import Measure, atomic_part, normalize
from .msets import MSetSpec, mset_masses
from .piecewise import PiecewiseLinearFn, StepFunction, fourier_partial_sums

__all__ = [
    "subdivide",
    "resample_equal",
    "claim_run",
    "ClaimResult",
    "CellResult",
    "theorem_demo",
    "DemoResult",
    "partial_sum_diagnostics",
]

TWO_PI = 2.0 * np.pi
LAMBDA_J, LAMBDA_K = 3, 3  # levels of the index set walked to choose kappa
EPS0, R_BUDGET = 0.1, 64  # default eps_k = EPS0 * 2^-k; r_min <= R_BUDGET
STEP_MAX_CELLS = 2048  # finest step approximation theorem_demo builds
RESAMPLE_MAX_CELLS = 4096  # finest equal grid resample_equal tries
SEARCH_CAP = 512  # default kappa_cap and r_cap of the claim searches


# ---------------------------------------------------------------------------
# Step-function plumbing

def resample_equal(phi: StepFunction):
    """Coarsest equal-cell refinement of phi, up to RESAMPLE_MAX_CELLS cells.

    If no equal grid up to the cap lands on every breakpoint, the function
    is resampled on the cap grid with each cell taking the left value.
    Returns (step_function, list of shifted-boundary reports).
    """
    if phi.is_equal_length():
        return phi, []
    lo, hi = phi.domain
    span = hi - lo
    inner = phi.breakpoints[1:-1]
    for n in range(phi.num_cells, RESAMPLE_MAX_CELLS + 1):
        pos = (inner - lo) / span * n
        if np.all(np.abs(pos - np.round(pos)) < 1e-9):
            xs = np.linspace(lo, hi, n + 1)
            mids = (xs[:-1] + xs[1:]) / 2.0
            return StepFunction(xs, phi(mids)), []
    xs = np.linspace(lo, hi, RESAMPLE_MAX_CELLS + 1)
    # left-value assignment: sample just right of each cell's left edge
    vals = phi(xs[:-1] + 1e-12 * span)
    shifts = [f"breakpoint {b!r} moved to the nearest multiple of "
              f"span/{RESAMPLE_MAX_CELLS}" for b in inner.tolist()]
    return StepFunction(xs, vals), shifts


def subdivide(phi: StepFunction, kappa: int) -> StepFunction:
    """Split each of the rho equal cells into kappa equal cells."""
    if kappa < 1 or int(kappa) != kappa:
        raise ValueError("kappa must be a positive integer")
    if not phi.is_equal_length():
        raise ValueError("subdivide needs equal-length cells; resample first")
    if kappa == 1:
        return phi
    lo, hi = phi.domain
    n = phi.num_cells * kappa
    return StepFunction(np.linspace(lo, hi, n + 1),
                        np.repeat(phi.values, kappa))


# ---------------------------------------------------------------------------
# Claim

@dataclass
class CellResult:
    """Corrector data and property checks for one partition cell."""

    cell: tuple[float, float]
    gamma: float
    eps: float
    r: int
    layout: CorrectorLayout
    psi: PiecewiseLinearFn
    mass_inner: float          # mu([a', b'])
    mass_e: float              # mu(E_k)
    cell_certified: bool       # mass_e >= (1 - 2/nu) mass_inner
    checks: dict[str, bool]    # corrector.check_corrector


@dataclass
class ClaimResult:
    nu: int
    rho: int
    kappa: int
    partition: StepFunction
    cells: list[CellResult]
    union_inner_mass: float    # mu of the union of [a_k', b_k']
    mu_e: float
    mu_total: float
    certified: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def e_intervals(self) -> np.ndarray:
        return np.vstack([c.layout.e_intervals for c in self.cells])

    @property
    def r_per_cell(self):
        return [c.r for c in self.cells]

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "rho": self.rho,
            "kappa": self.kappa,
            "r_per_cell": self.r_per_cell,
            "mu_E": self.mu_e,
            "mu_total": self.mu_total,
            "certified": self.certified,
            "cells": [
                {
                    "cell": list(c.cell),
                    "gamma": c.gamma,
                    "eps": c.eps,
                    "r": c.r,
                    "mu_inner": c.mass_inner,
                    "mu_E_k": c.mass_e,
                    "cell_certified": c.cell_certified,
                    "checks": c.checks,
                }
                for c in self.cells
            ],
            "diagnostics": self.diagnostics,
        }


def _default_eps_seq(gammas, widths, nu):
    """Geometric eps_k = EPS0 * 2^-k, floored so the minimal admissible r
    stays within R_BUDGET (a pure geometric default would push r past any
    practical search cap once the cell count grows)."""
    return [max(EPS0 * 0.5**k, 8.0 * abs(g) * w / (R_BUDGET * nu), 1e-300)
            for k, (g, w) in enumerate(zip(gammas, widths))]


def claim_run(phi: StepFunction, mu: Measure, nu: int,
              eps_seq: Optional[Sequence[float]] = None, *,
              kappa_cap: int = SEARCH_CAP, r_cap: int = SEARCH_CAP,
              refinement: int = DEFAULT_REFINEMENT) -> ClaimResult:
    """One full round of the correction construction over [0, 2 pi].

    Chooses kappa by walking the certified index set of the normalized
    measure until the union of inner intervals [a_k', b_k'] reaches
    (1 - 5/nu) of the total mass, then picks r per cell until each kept set
    reaches (1 - 2/nu) of its inner interval, and certifies
    mu(E) >= (1 - 7/nu) mu([0, 2 pi]) by direct measure computation.
    Exhausted search caps yield an uncertified result, not an error.
    `refinement` is the ceiling of build_lambda's coarse-to-fine levels.
    """
    if int(nu) != nu or nu <= 8:
        raise ValueError("nu must be an integer > 8")
    lo, hi = mu.domain
    if atomic_part(mu):
        raise AtomicMeasureError("claim_run requires a non-atomic measure")
    phi, shifts = resample_equal(phi)
    if phi.domain != (lo, hi):
        raise ValueError("step function and measure must share the domain")
    rho = phi.num_cells
    mu_total = float(mu.interval_mass(lo, hi))
    sigma_u, tau_u = 2.0 / nu, 1.0 - 4.0 / nu
    target_union = (1.0 - 5.0 / nu) * mu_total

    nrm = normalize(mu, (lo, hi))

    # stage 1: kappa from the union-level M-set, walking the index set
    tried = []
    N_max, prev = min(max(rho * 16, 64), rho * kappa_cap), 0
    while True:
        lam = build_lambda(nrm, K=LAMBDA_K, J=LAMBDA_J, N_max=N_max, m=rho,
                           refinement=refinement)
        ns = lam.members[lam.members >= max(rho, prev + 1)]
        masses = mset_masses(
            mu, [MSetSpec((lo, hi), int(n), sigma_u, tau_u) for n in ns])
        hit = np.flatnonzero(masses >= target_union)
        stop = hit[0] + 1 if hit.size else ns.size
        tried += zip((ns[:stop] // rho).tolist(), masses[:stop].tolist())
        if hit.size or N_max >= rho * kappa_cap:
            break
        N_max, prev = min(2 * N_max, rho * kappa_cap), N_max
    stage1_certified = bool(hit.size)
    # first maximum when no mass reaches the target
    kappa, union_mass = tried[-1] if stage1_certified else max(
        tried, key=lambda t: t[1], default=(1, None))
    if union_mass is None:  # no member in range: kappa = 1, measured
        union_mass, = mset_masses(
            mu, [MSetSpec((lo, hi), rho, sigma_u, tau_u)])

    part = subdivide(phi, kappa)
    cells_lr = np.column_stack([part.breakpoints[:-1], part.breakpoints[1:]])
    gammas = part.values
    if eps_seq is None:
        eps_seq = _default_eps_seq(gammas, np.diff(part.breakpoints), nu)
    else:
        eps_seq = [float(e) for e in eps_seq]
        if len(eps_seq) < len(gammas):
            raise ValueError("eps_seq shorter than the cell count")

    # stage 2: r per cell, measuring E_k on the layout each candidate builds
    cells = []
    for (ck, dk), gk, epsk in zip(cells_lr, gammas, eps_seq):
        r_min = choose_r(ck, dk, gk, epsk, nu)
        best = None  # (layout, mu([a', b']), mu(E_k)): first maximum, or ok
        # r_min above r_cap: measure the least admissible r, uncertified
        for r in _r_schedule(r_min, r_cap) or [r_min]:
            lay = layout(CorrectorParams(ck, dk, gk, epsk, nu, r))
            inner = float(mu.interval_mass(lay.a_prime, lay.b_prime))
            mass_e = inner - np.sum(mu.interval_mass(*lay.removed.T))
            ok = bool(mass_e >= (1.0 - 2.0 / nu) * inner - 1e-15 * mu_total
                      and r <= r_cap)
            if ok or best is None or mass_e > best[2]:
                best = (lay, inner, float(mass_e))
            if ok:
                break
        lay, inner, mass_e = best
        psi = build_psi(lay, gk, nu)
        cells.append(CellResult((float(ck), float(dk)), float(gk), epsk,
                                lay.r, lay, psi, inner, mass_e, ok,
                                check_corrector(lay, psi, gk, epsk)))

    mu_e = float(sum(c.mass_e for c in cells))
    certified = (stage1_certified and all(c.cell_certified for c in cells)
                 and mu_e >= (1.0 - 7.0 / nu) * mu_total - 1e-12 * mu_total)
    diagnostics = {
        "stage1_certified": stage1_certified,
        "union_target": target_union,
        "kappa_search": [[int(k), float(m)] for k, m in tried],
        "resample_shifts": shifts,
    }
    return ClaimResult(int(nu), rho, int(kappa), part, cells,
                       float(union_mass), mu_e, mu_total, bool(certified),
                       diagnostics)


def _r_schedule(r_min: int, r_cap: int):
    """r candidates: a consecutive run from r_min, then doubling steps."""
    out = list(range(r_min, min(r_min + 8, r_cap + 1)))
    r = r_min + 8
    while r <= r_cap:
        out.append(r)
        r *= 2
    if out and out[-1] != r_cap:
        out.append(r_cap)
    return out


# ---------------------------------------------------------------------------
# Single-round theorem demo

@dataclass
class DemoResult:
    g: PiecewiseLinearFn
    phi: StepFunction
    claim: ClaimResult
    nu: int
    eps: float
    exceptional_mass: float    # mu([0, 2 pi] \ E)
    below_eps: bool
    sup_gap_on_e: float        # sup |f - g| sampled on E
    uniform_gap: float

    def report(self) -> dict:
        return {
            "nu": self.nu,
            "eps": self.eps,
            "exceptional_mass": self.exceptional_mass,
            "below_eps": self.below_eps,
            "sup_gap_on_E": self.sup_gap_on_e,
            "uniform_gap": self.uniform_gap,
            "claim": self.claim.to_json_dict(),
        }


def _step_approximation(f: Callable, domain,
                        uniform_gap: float) -> StepFunction:
    """Equal-cell step approximation with sup |f - phi| <= uniform_gap, or
    QuadratureError when no rho = 1, 2, 4, ... <= STEP_MAX_CELLS meets it."""
    lo, hi = domain
    grid = np.linspace(lo, hi, 16 * STEP_MAX_CELLS + 1)
    fx = np.broadcast_to(f(grid), grid.shape).astype(float)
    rho = 1
    # half-open cells [x_i, x_{i+1}): the shared right endpoint belongs to
    # the next cell, so a jump aligned with a boundary resolves; rho divides
    # the 16 * STEP_MAX_CELLS grid cells, so each row is a cell
    while True:
        osc = float(np.ptp(fx[:-1].reshape(rho, -1), axis=1).max())
        if osc <= uniform_gap:  # the midpoint value stays within osc
            break
        if rho == STEP_MAX_CELLS:  # NaN never meets the gap either
            raise QuadratureError(
                f"no step function of up to {rho} equal cells meets "
                f"uniform_gap={uniform_gap!r}: the oscillation is {osc!r}")
        rho *= 2
    xs = np.linspace(lo, hi, rho + 1)
    mids = (xs[:-1] + xs[1:]) / 2.0
    return StepFunction(xs, np.broadcast_to(f(mids), mids.shape))


def _continuous_from_plateaus(claim: ClaimResult) -> PiecewiseLinearFn:
    """Continuous piecewise-linear g equal to gamma_k on [a_k', b_k'].

    Linear interpolation across the junction zones between consecutive
    plateaus and ramps to 0 at the domain endpoints, so g(0) = g(2 pi) = 0.
    """
    lo, hi = claim.partition.domain
    xs = [x for c in claim.cells for x in (c.layout.a_prime, c.layout.b_prime)]
    ys = [c.gamma for c in claim.cells for _ in range(2)]
    return PiecewiseLinearFn([lo, *xs, hi], [0.0, *ys, 0.0])


def theorem_demo(f: Callable, mu: Measure, eps: float, uniform_gap: float,
                 kappa_cap: int = SEARCH_CAP,
                 r_cap: int = SEARCH_CAP) -> DemoResult:
    """One verified correction round for a continuous f on [0, 2 pi].

    Picks the smallest nu > 8 with 7 mu_total / nu < eps, approximates f by
    an equal-cell step function within uniform_gap, runs one certified
    correction round, and returns a continuous piecewise-linear g that
    matches the step values on all of E, with the measured mass of E's
    complement.  f is called once per 1-d float array of sample points;
    its result is broadcast to that array's shape as floats.  Raises
    QuadratureError when no step function meets uniform_gap.
    """
    if not (eps > 0 and uniform_gap > 0):  # refuses NaN too
        raise ValueError("eps and uniform_gap must be positive")
    lo, hi = mu.domain
    mu_total = float(mu.interval_mass(lo, hi))
    nu = max(9, int(np.floor(7.0 * mu_total / eps)) + 1)
    while 7.0 * mu_total / nu >= eps:
        nu += 1
    phi = _step_approximation(f, (lo, hi), uniform_gap)
    claim = claim_run(phi, mu, nu, kappa_cap=kappa_cap, r_cap=r_cap)
    g = _continuous_from_plateaus(claim)
    exceptional = mu_total - claim.mu_e
    # |f - g| on E is at most the step gap; measure it on sampled E points
    pts = np.concatenate([c.layout.e_samples() for c in claim.cells])
    sup_gap = np.max(np.abs(f(pts) - g(pts)))
    return DemoResult(g, phi, claim, nu, float(eps), float(exceptional),
                      bool(exceptional < eps), float(sup_gap),
                      float(uniform_gap))


def partial_sum_diagnostics(g: PiecewiseLinearFn, N_list: Sequence[int],
                            grid: int = 2048):
    """Sup-norm gap between g and its Fourier partial sums S_N.

    g must close up (g(0) = g(2 pi), both zero outside its support, so the
    periodization is continuous).  Returns a list of (N, sup |S_N g - g|).
    """
    N_max = int(max(N_list))
    coeffs = g.fourier_coefficients(N_max)
    x = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    sums = fourier_partial_sums(coeffs, x)
    gx = g(x)
    return [(int(N), float(np.max(np.abs(sums[int(N)] - gx)))) for N in N_list]
