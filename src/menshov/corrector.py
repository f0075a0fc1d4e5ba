"""The piecewise-linear corrector on [c, d] and its verified properties.

Given gamma, eps, nu > 8 and a repetition count r, the layout divides
[c, d] into q = r * nu periods of nu * delta each, removes one interval of
width delta per interior period, and keeps the set E inside [a', b'].  The
corrector psi equals gamma on E, dips to -gamma(2 nu - 1) at the midpoint
of each removed interval (which cancels the integral over each period
exactly), ramps from 0 just outside [a', b'], and vanishes elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .piecewise import _CHUNK_ELEMS, PiecewiseLinearFn

__all__ = [
    "CorrectorParams",
    "CorrectorLayout",
    "choose_r",
    "layout",
    "build_psi",
    "running_integral_sup",
    "check_corrector",
    "kernel_sup",
]

# q = r nu; layout + psi + check peak at 168-223 B per node under
# tracemalloc, rising with the removed count (nu - 4) r <= q: at most
# 223 MiB at this limit, inside the 0.5 GiB budget of MAX_X_GRID
MAX_LAYOUT_NODES = 1 << 20
# kernel_sup's x points times its m omega sub-blocks per unit: _kernel_rows
# keeps 12 m phases e^{-iox} per point and peaks at 34 doubles per point and
# sub-block at m = 1 (25 at m = 7) under tracemalloc at 2^16 points, so at
# most 272 MiB at this limit, inside the 0.5 GiB budget
MAX_X_GRID = 1 << 20
_U = np.finfo(float).eps / 2  # unit roundoff: |fl(x) - x| <= _U |x|


def _check_nu(nu):
    # the negated comparison refuses NaN too, before int() could see it
    if not (8 < nu < np.inf and int(nu) == nu):
        raise ValueError(f"nu must be an integer > 8, got {nu}")


def _check_cell(c, d, gamma, eps, nu):
    # the negated comparisons refuse NaN too
    if not -np.inf < c < d < np.inf:
        raise ValueError(f"need finite c < d, got c={c}, d={d}")
    _check_nu(nu)
    if not abs(gamma) < np.inf:
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def _admissible(c, d, gamma, eps, q) -> bool:
    return 4.0 * abs(gamma) * (d - c) / q < eps


def choose_r(c: float, d: float, gamma: float, eps: float, nu: int) -> int:
    """Smallest integer r with 4 |gamma| (d - c) / (r nu) < eps, returned
    only once CorrectorParams accepts it; ValueError otherwise."""
    _check_cell(c, d, gamma, eps, nu)
    x = 4.0 * abs(gamma) * (d - c) / (eps * nu)
    if not x * nu <= MAX_LAYOUT_NODES:  # every admissible q = r nu > x nu
        raise ValueError(f"4|gamma|(d-c)/eps = {x * nu!r} puts every "
                         f"admissible q above {MAX_LAYOUT_NODES} layout nodes")
    r = int(np.floor(x)) + 1
    # guard against the strict inequality failing on the boundary
    while not _admissible(c, d, gamma, eps, r * nu):
        r += 1
    return CorrectorParams(c, d, gamma, eps, nu, r).r


@dataclass(frozen=True)
class CorrectorParams:
    c: float
    d: float
    gamma: float
    eps: float
    nu: int
    r: int

    def __post_init__(self):
        _check_cell(self.c, self.d, self.gamma, self.eps, self.nu)
        if not (1 <= self.r < np.inf and int(self.r) == self.r):
            raise ValueError("r must be a positive integer")
        q = self.r * self.nu
        if q > MAX_LAYOUT_NODES:
            raise ValueError(f"q = r nu = {q} is above the "
                             f"{MAX_LAYOUT_NODES}-node layout limit")
        if not _admissible(self.c, self.d, self.gamma, self.eps, q):
            raise ValueError(
                "inadmissible parameters: 4|gamma|(d-c)/q must be < eps")


@dataclass(frozen=True, eq=False)  # == on the array fields is ambiguous
class CorrectorLayout:
    """The pieces of E and the removed intervals of the corrector
    construction, on the nodes c_s = c + s (d-c)/q, s = 2r..q-2r."""

    c: float
    d: float
    nu: int
    r: int
    q: int
    delta: float
    a_prime: float               # = c_{2r}
    b_prime: float               # = c_{q-2r}
    removed: np.ndarray          # ((nu-4) r, 2): [a_s, c_s], s = 2r+1..q-2r
    e_intervals: np.ndarray      # ((nu-4) r + 1, 2); last one degenerate

    def lebesgue_e(self) -> float:
        return float(np.sum(self.e_intervals[:, 1] - self.e_intervals[:, 0]))

    def e_samples(self) -> np.ndarray:
        """Left end, midpoint and right end of every piece of E, row by row."""
        a, b = self.e_intervals[:, 0], self.e_intervals[:, 1]
        return np.column_stack([a, (a + b) / 2.0, b]).ravel()


def layout(params: CorrectorParams) -> CorrectorLayout:
    """Build the removed intervals and the kept set E."""
    c, d, nu, r = params.c, params.d, params.nu, params.r
    q = int(r * nu)  # nu may be an integral float such as 16.0
    delta = (d - c) / (q * nu)
    nodes = c + np.arange(2 * r, q - 2 * r + 1) * ((d - c) / q)  # a' .. b'
    a_s = nodes[1:] - delta
    removed = np.column_stack([a_s, nodes[1:]])
    # kept pieces: [c_s, a_{s+1}] for s = 2r..q-2r-1, then the point {b'}
    e_intervals = np.column_stack([nodes, np.append(a_s, nodes[-1])])
    return CorrectorLayout(c, d, int(nu), int(r), q, delta,
                           float(nodes[0]), float(nodes[-1]), removed,
                           e_intervals)


def build_psi(lay: CorrectorLayout, gamma: float, nu: int) -> PiecewiseLinearFn:
    """The corrector function for a given layout.

    Equals gamma on every kept interval of E; on each removed interval it
    dips linearly to h = -gamma (2 nu - 1) at the midpoint; entry/exit ramps
    of width delta connect to 0 just outside [a', b'].
    """
    if nu != lay.nu:
        raise ValueError("nu must match the layout")
    h = -gamma * (2 * nu - 1)
    a_s, c_s = lay.removed[:, 0], lay.removed[:, 1]
    dips = np.column_stack([a_s, (a_s + c_s) / 2.0, c_s]).ravel()
    xs = np.concatenate([[lay.a_prime - lay.delta, lay.a_prime], dips,
                         [lay.b_prime + lay.delta]])
    ys = np.concatenate([[0.0, gamma], np.tile([gamma, h, gamma], a_s.size),
                         [0.0]])
    return PiecewiseLinearFn(xs, ys)


def running_integral_sup(psi: PiecewiseLinearFn) -> float:
    """Exact sup over xi of |integral of psi from 0 to xi|.

    Candidates are the breakpoints plus the interior extrema of each
    quadratic piece of the running integral; no grids involved.
    """
    return float(np.max(np.abs(psi.running_integral_extrema())))


def _running_integral_rounding(psi: PiecewiseLinearFn) -> float:
    """A-priori bound on the rounding of running_integral_extrema's values.

    With n segments, X = max |x| and Y = max |y|, the sum of the segments'
    h (|y0| + |y1|) / 2 is at most T = 2 X Y:
    - a trapezoid h (y0 + y1) / 2 rounds in h, the sum and the product,
      so within 3 _U of its share of T; np.cumsum adds them in order, so
      every breakpoint value is within (n + 3) _U T;
    - an interior extremum adds y0 (xc - x0) / 2 to one of them, with
      xc = x0 + y0 / (y0 - y1) (x1 - x0).  The ratio and product round xc -
      x0 <= h by 4 _U of it, the sum by _U |xc|, the difference xc - x0 by
      _U h: |y0| (5 h + |xc|) _U / 2 <= 6 X Y _U with h <= 2 X.  The term's
      own product and the sum with the breakpoint value add 3 _U T.
    So every candidate is within _U ((n + 9) T + 6 X Y) = (2 n + 24) _U X Y,
    the spare _U T covering the products of two roundings.
    """
    xs, ys = psi.xs, psi.ys
    x_max = max(-xs[0], xs[-1])  # xs is increasing
    y_max = max(-ys.min(), ys.max())
    return float((2 * xs.size + 22) * _U * x_max * y_max)


def check_corrector(lay: CorrectorLayout, psi: PiecewiseLinearFn,
                    gamma: float, eps: float) -> dict[str, bool]:
    """Numerical checks of the corrector properties, with nu = lay.nu.

    The running integral's sup is compared with eps after adding the
    a-priori bound on its rounding, the sum rounded up by one ulp.
    """
    nu = lay.nu
    bound = running_integral_sup(psi) + _running_integral_rounding(psi)
    checks = {
        "sup_bound": np.max(np.abs(psi.ys)) <= 2 * nu * abs(gamma),
        "equals_gamma_on_E": np.all(psi(lay.e_samples()) == gamma),
        "running_integral": np.nextafter(bound, np.inf) < eps,
        "removed_count": lay.removed.shape[0] == (nu - 4) * lay.r,
        "lebesgue_E": lay.lebesgue_e() >= (lay.d - lay.c) * (1 - 5.0 / nu),
    }
    return {k: bool(v) for k, v in checks.items()}


_OMEGA_NODES, _OMEGA_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _sub_blocks(psi: PiecewiseLinearFn, lo: float, hi: float) -> int:
    """m = ceil(T / 2 pi) for x in [lo, hi], T = max |t - x| over supp psi."""
    span = max(psi.xs[-1] - lo, hi - psi.xs[0])
    return max(1, int(np.ceil(span / (2.0 * np.pi))))


def _kernel_rows(psi: PiecewiseLinearFn, j_max: int, xs):
    """Rows K_j(x) = integral psi(t) sin(j (t - x)) / (t - x) dt, j = 1..j_max,
    at the points of the array xs, yielded as blocks of consecutive rows.

    sin(ju)/u = integral_0^j cos(wu) dw gives K_j(x) = integral_0^j
    Re[Psi(w) e^{-iwx}] dw, Psi(w) = psi.transform(w) exact per segment.
    Row j is row j-1 plus [j-1, j] by 12-point Gauss-Legendre on m
    sub-blocks of width 1/m <= 2 pi / T, T = max |t - x| over supp psi and
    xs.  The integrand is entire of exponential type T, so each block is within
    (n!)^4 / ((2n+1) ((2n)!)^3) (2 pi)^(2n) integral |psi|
    = 1.3e-19 integral |psi| (n = 12), and row j within j times that.

    Each node is w = k + o, k an integer and o one of the 12 m offsets.
    A block of _CHUNK_ELEMS // max(12 m, xs.size) rows takes p = Psi
    times the Gauss weight from one psi.transform(k, offs), whose phase is
    factored as e^{ika} e^{ioa} (within the rounding term it states).  On
    the x side e^{-iwx} = e^{-ikx} e^{-iox}: the e^{-iox} are one table,
    block k sums q = sum_o p(k + o) e^{-iox} over o in ascending order (a
    fixed order, so the rows do not depend on the chunk; a BLAS product's
    order may) and adds Re[e^{-ikx} q].  With u = 2^-53, X = max |x| and
    S_j = sum |p| over row j's nodes, row j is within
    u (j X + j + 18 m + 28) S_j of the same sum of these p taken exactly:
    the phases o x and k x round by (k + 1) X u <= j X u, np.exp and the
    two complex products by 28 u |p|, the sum over the 12 m offsets by
    18 m u sum |p| and the running sum by j u S_j.
    """
    m = _sub_blocks(psi, xs.min(), xs.max())
    offs = ((np.arange(m)[:, None] + (1.0 + _OMEGA_NODES) / 2.0) / m).ravel()
    wts = _OMEGA_WEIGHTS / (2.0 * m)
    chunk = max(1, _CHUNK_ELEMS // max(offs.size, xs.size))  # rows per block
    e_off = -1j * offs[:, None] * xs
    np.exp(e_off, out=e_off)  # e^{-iox}, one table for every block
    rows = np.zeros((1, xs.size))  # row 0: K_0 = 0
    for j0 in range(0, j_max, chunk):
        j = np.arange(j0, min(j0 + chunk, j_max))[:, None]
        p = psi.transform(j[:, 0], offs) * np.tile(wts, m)
        q = p[:, :1] * e_off[0]
        for o in range(1, offs.size):  # one fixed order, whatever the chunk
            q += p[:, o:o + 1] * e_off[o]
        incr = (np.exp(-1j * j * xs) * q).real
        incr[0] += rows[-1]
        rows = np.cumsum(incr, axis=0)
        yield rows


def kernel_sup(psi: PiecewiseLinearFn, j_max: int, x_grid: int,
               nu: int, gamma: float):
    """Sup of |integral psi(t) sin(j (t - x)) / (t - x) dt| over j and x.

    j in 1..j_max, x on a uniform grid of x_grid points in [0, 2 pi], with
    m x_grid <= MAX_X_GRID for _kernel_rows' m omega sub-blocks per unit;
    the rows come from _kernel_rows, within j_max * 1.3e-19 * integral |psi|
    plus its rounding.  nu is checked by the corrector's one nu rule.
    Returns (sup, b_hat), b_hat = sup / (nu |gamma|), or None when gamma
    is 0.
    """
    if j_max < 1 or x_grid < 1:
        raise ValueError("kernel_sup needs j_max >= 1 and x_grid >= 1")
    _check_nu(nu)
    m = _sub_blocks(psi, 0.0, 2.0 * np.pi)  # _kernel_rows' m, or one more
    if m * x_grid > MAX_X_GRID:
        raise ValueError(f"x_grid={x_grid} times {m} omega sub-blocks "
                         f"exceeds the {MAX_X_GRID}-point limit")
    xs = np.linspace(0.0, 2.0 * np.pi, x_grid)
    sup = max(float(np.abs(r).max()) for r in _kernel_rows(psi, j_max, xs))
    if gamma == 0:
        return sup, None
    return sup, sup / (nu * abs(gamma))
