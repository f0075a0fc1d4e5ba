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

from .corrector import (MAX_LAYOUT_NODES, CorrectorLayout, CorrectorParams,
                        _check_nu, build_psi, check_corrector, choose_r,
                        layout)
from .errors import QuadratureError
from .fourier import DEFAULT_REFINEMENT, build_lambda
from .measures import Measure, normalize
from .msets import mset_masses
from .piecewise import PiecewiseLinearFn, StepFunction

__all__ = [
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
SEARCH_CAP = 512  # default kappa_cap and r_cap of the claim searches
PARTIAL_SUM_GRID = 2048  # points of [0, 2 pi) where S_N g - g is sampled
MAX_PARTIAL_SUM_N = 1 << 20  # largest N; its coefficients cost N * segments


# ---------------------------------------------------------------------------
# Claim

@dataclass
class CellResult:
    """Corrector data and property checks for one partition cell.

    The cell is [layout.c, layout.d], its r is layout.r and its corrector
    is build_psi(layout, gamma, claim.nu).
    """

    gamma: float
    eps: float
    layout: CorrectorLayout
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
        return [c.layout.r for c in self.cells]

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
                    "cell": [float(c.layout.c), float(c.layout.d)],
                    "gamma": c.gamma,
                    "eps": c.eps,
                    "r": c.layout.r,
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
    _check_nu(nu)
    if not (kappa_cap >= 1 and r_cap >= 1):
        raise ValueError("kappa_cap and r_cap must be at least 1")
    lo, hi = mu.domain
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
        masses = mset_masses(mu, (lo, hi), ns, sigma_u, tau_u)
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
        union_mass, = mset_masses(mu, (lo, hi), [rho], sigma_u, tau_u)

    part = StepFunction(phi.domain, np.repeat(phi.values, kappa))
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
            ok = bool(mass_e >= (1.0 - 2.0 / nu) * inner and r <= r_cap)
            if ok or best is None or mass_e > best[2]:
                best = (lay, inner, float(mass_e))
            if ok:
                break
        lay, inner, mass_e = best
        checks = check_corrector(lay, build_psi(lay, gk, nu), gk, epsk)
        cells.append(CellResult(float(gk), epsk, lay, inner, mass_e, ok,
                                checks))

    mu_e = float(sum(c.mass_e for c in cells))
    certified = (stage1_certified and all(c.cell_certified for c in cells)
                 and mu_e >= (1.0 - 7.0 / nu) * mu_total)
    diagnostics = {
        "stage1_certified": stage1_certified,
        "union_target": target_union,
        "kappa_search": [[int(k), float(m)] for k, m in tried],
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
    return StepFunction((lo, hi), np.broadcast_to(f(mids), mids.shape))


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
    an equal-cell step function within uniform_gap (a StepFunction f on
    mu's domain is its own), runs one certified correction round, and
    returns a continuous piecewise-linear g that matches the step values on
    all of E, with the measured mass of E's complement.  f is called once
    per 1-d float array of sample points; its result is broadcast to that
    array's shape as floats.  Raises QuadratureError when no step function
    meets uniform_gap, or when the claim cannot run the one that does.
    """
    if not (eps > 0 and uniform_gap > 0):  # refuses NaN too
        raise ValueError("eps and uniform_gap must be positive")
    lo, hi = mu.domain
    mu_total = float(mu.interval_mass(lo, hi))
    if not 7.0 * mu_total / eps <= MAX_LAYOUT_NODES:  # nu above every layout
        raise ValueError(f"eps={eps!r} needs nu > 7 mu_total / eps, above "
                         f"the {MAX_LAYOUT_NODES}-node layout limit")
    nu = max(9, int(np.floor(7.0 * mu_total / eps)) + 1)
    while 7.0 * mu_total / nu >= eps:
        nu += 1
    phi = f if isinstance(f, StepFunction) else _step_approximation(
        f, (lo, hi), uniform_gap)
    try:
        claim = claim_run(phi, mu, nu, kappa_cap=kappa_cap, r_cap=r_cap)
    except QuadratureError as exc:
        why = "f" if phi is f else f"uniform_gap={uniform_gap!r}"
        raise QuadratureError(
            f"the claim cannot run the rho={phi.num_cells}-cell step function "
            f"that {why} needs: {exc}") from exc
    g = _continuous_from_plateaus(claim)
    exceptional = mu_total - claim.mu_e
    # |f - g| on E is at most the step gap; measure it on sampled E points
    pts = np.concatenate([c.layout.e_samples() for c in claim.cells])
    sup_gap = np.max(np.abs(f(pts) - g(pts)))
    return DemoResult(g, claim, nu, float(eps), float(exceptional),
                      bool(exceptional < eps), float(sup_gap),
                      float(uniform_gap))


def partial_sum_diagnostics(g: PiecewiseLinearFn, N_list: Sequence[int]):
    """Sup-norm gap between g and its Fourier partial sums S_N.

    g must vanish outside [0, 2 pi], so its periodization is continuous.
    Returns a list of (N, sup |S_N g - g|) over the grid x_j = 2 pi j / G,
    G = PARTIAL_SUM_GRID.  e^{inx_j} depends only on n mod G, so c_1..c_N
    summed by n mod G give S_N(x_j) exactly from one inverse FFT.
    """
    if not (isinstance(N_list, (list, tuple, np.ndarray)) and all(
            isinstance(N, (int, np.integer)) and not isinstance(N, bool)
            and 0 <= N <= MAX_PARTIAL_SUM_N for N in N_list)):
        raise ValueError("partial_sums must be a list of integers N with "
                         f"0 <= N <= {MAX_PARTIAL_SUM_N}, got {N_list!r}")
    if g.xs[0] < 0.0 or g.xs[-1] > TWO_PI:  # S_N g tends to g's periodization
        raise ValueError("partial_sums need g zero outside [0, 2 pi], got "
                         f"support [{g.xs[0]!r}, {g.xs[-1]!r}]")
    G = PARTIAL_SUM_GRID
    coeffs = g.fourier_coefficients(int(max(N_list, default=0)))
    gx = g(np.linspace(0.0, TWO_PI, G, endpoint=False))
    out = []
    for N in map(int, N_list):
        c = np.concatenate([[0.0], coeffs[1:N + 1], np.zeros(-(N + 1) % G)])
        folded = c.reshape(-1, G).sum(axis=0)  # F_k: sum of c_n, n = k mod G
        s_n = coeffs[0].real + 2.0 * np.fft.ifft(folded, norm="forward").real
        out.append((N, float(np.max(np.abs(s_n - gx)))))
    return out
