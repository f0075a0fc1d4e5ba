"""Piecewise-linear functions: evaluation, the extrema of the running
integral, and the closed-form Fourier transform of each linear segment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewiseLinearFn", "StepFunction"]

_CHUNK_ELEMS = 1 << 12  # complex entries per transform temporary


class PiecewiseLinearFn:
    """Continuous piecewise-linear function, zero outside its breakpoints.

    Linear between consecutive breakpoints; immutable after construction.
    """

    def __init__(self, breakpoints, values):
        # copies, read-only below: the caller's arrays may change later
        xs = np.array(breakpoints, dtype=float)
        ys = np.array(values, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d breakpoint/value arrays, size >= 2")
        # negated comparisons, so NaN is refused too
        if not (np.all(np.abs(xs) < np.inf) and np.all(xs[1:] > xs[:-1])):
            raise ValueError("breakpoints must be finite and strictly "
                             "increasing")
        # xs increases, so no segment is wider than the whole span; Python
        # floats overflow to inf here without a warning
        lo, hi = float(xs[0]), float(xs[-1])
        if not hi - lo < np.inf:
            raise ValueError(f"breakpoint span {lo!r}..{hi!r} overflows a "
                             "float")
        finite = np.abs(ys) < np.inf
        if not np.all(finite):
            raise ValueError(f"values must be finite, got {ys[~finite][0]}")
        self.xs = xs
        self.ys = ys
        for owned in (xs, ys):
            owned.setflags(write=False)

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys, left=0.0, right=0.0)

    def running_integral_extrema(self):
        """Candidate values of the running integral at its extrema.

        The running integral is piecewise quadratic, so it suffices to check
        0 (left of the support), the breakpoints (a trapezoid sum per
        segment) and the interior zero crossings of the function.
        """
        xs, ys = self.xs, self.ys
        at_xs = np.zeros(xs.size)  # running integral at xs, summed in place
        np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0, out=at_xs[1:])
        i = np.flatnonzero(ys[:-1] * ys[1:] < 0)  # quadratic extrema
        x0, y0 = xs[i], ys[i]
        xc = x0 + y0 / (y0 - ys[i + 1]) * (xs[i + 1] - x0)
        vc = at_xs[i] + y0 * (xc - x0) / 2.0
        return np.concatenate([[0.0], vc, at_xs[1:]])

    def transform(self, omega, offsets=(0.0,)):
        """Psi(w + o) = integral f(t) e^{i(w + o)t} dt on the grid of the 1-d
        omega by the 1-d offsets, shape (omega.size, offsets.size).

        Exact on a segment [a, a + h] with end values y0, y1:
        e^{iwa} h [y0 phi2(iwh) + y1 (phi1 - phi2)(iwh)]; phi1 and phi2
        take their Taylor series on short segments, where the closed forms
        would cancel.  They are evaluated once per node and distinct
        width, at the node fl(w + o), and gathered per segment.  The phase
        is factored, e^{i(w + o)a} = e^{iwa} e^{ioa}: one e^{iwa} per omega
        row and one e^{ioa} table per slice of omega, multiplied together
        before the segment term.  The terms are summed over blocks of
        ceil(segments / offsets.size) segments, so an e^{ioa} block holds
        about as many entries as there are segments.

        With offsets (0,) that is one sum, bitwise a per-segment evaluation
        at each w.  Other offsets round the phase as w a and o a, not
        fl(w + o) a, and take one more complex product: each value is
        within u (5 |a| (|w| + |o|) + 5 S + 64) A of the per-node
        evaluation, with u = 2^-53, |a| the largest left end, S the segment
        count and A = sum h (|y0| + |y1|).

        Slices of omega keep each phi table and product within
        max(_CHUNK_ELEMS, S) complex entries while one omega row of them
        fits; no value depends on the slicing.
        """
        w = np.asarray(omega, dtype=float)
        o = np.asarray(offsets, dtype=float)
        a, h = self.xs[:-1], np.diff(self.xs)
        widths, seg = np.unique(h, return_inverse=True)
        hy1, hdy = h * self.ys[1:], h * (self.ys[:-1] - self.ys[1:])
        out = np.empty((w.size, o.size), dtype=complex)
        n = max(1, o.size)
        span = -(-h.size // n)  # segments per block
        elems = max(_CHUNK_ELEMS, h.size)
        rows = max(1, elems // (n * widths.size))  # omega rows per phi table
        sub = max(1, elems // (n * span))  # omega rows per product
        for i in range(0, w.size, rows):
            wi, oi = w[i:i + rows, None], out[i:i + rows]
            phi1, phi2 = _phi12(1j * (wi + o)[:, :, None] * widths)
            for s in range(0, h.size, span):
                sl = slice(s, s + span)
                e_o = np.exp(1j * o[:, None] * a[sl])
                for k in range(0, wi.shape[0], sub):
                    e_w = np.exp(1j * wi[k:k + sub] * a[sl])[:, None]
                    # C-contiguous gathers: every product takes the same
                    # loop, whatever the slice
                    c = (hy1[sl] * np.take(phi1[k:k + sub], seg[sl], axis=-1)
                         + hdy[sl] * np.take(phi2[k:k + sub], seg[sl], axis=-1))
                    part = (e_w * e_o * c).sum(axis=-1)
                    if s == 0:
                        oi[k:k + sub] = part
                    else:
                        oi[k:k + sub] += part
        return out

    def fourier_coefficients(self, N: int):
        """c_n = (1/2 pi) integral f(t) e^{-int} dt, n = 0..N; period 2 pi."""
        return self.transform(-np.arange(N + 1))[:, 0] / (2.0 * np.pi)


_INV_FACT = 1.0 / np.cumprod([1.0, *range(1, 19)])  # 1/k!, k = 0..18


def _phi12(z: np.ndarray):
    """(e^z - 1)/z and (e^z - 1 - z)/z^2; 17 Taylor terms below |z| = 0.5."""
    small = np.abs(z) < 0.5
    big = ~small
    phi1, phi2, zb = np.empty_like(z), np.empty_like(z), z[big]
    em1 = np.exp(zb)  # e^z - 1, then (e^z - 1 - z) / z^2, in place
    em1 -= 1.0
    phi1[big] = em1 / zb
    em1 -= zb
    zb *= zb
    em1 /= zb
    phi2[big] = em1
    zs = z[small]
    t = np.repeat(_INV_FACT[17:, None], zs.size, axis=1).astype(complex)
    for k in range(15, -1, -1):  # both series by Horner, in place
        t *= zs
        t += _INV_FACT[k + 1:k + 3, None]  # remainder below 1e-20
    phi1[small], phi2[small] = t
    return phi1, phi2


@dataclass(frozen=True, eq=False)  # == on the array field is ambiguous
class StepFunction:
    """Step function on len(values) equal cells of domain = (lo, hi)."""

    domain: tuple[float, float]
    values: np.ndarray

    def __post_init__(self):
        lo, hi = (float(x) for x in self.domain)
        if not -np.inf < lo < hi < np.inf:  # refuses NaN too
            raise ValueError(f"need a finite domain lo < hi, got {self.domain}")
        ys = np.asarray(self.values, dtype=float)
        if ys.ndim != 1 or ys.size < 1:
            raise ValueError("step values must be a 1-d array of at least "
                             "one value")
        if not np.all(np.isfinite(ys)):
            raise ValueError("step values must be finite, got "
                             f"{ys[~np.isfinite(ys)][0]}")
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "values", ys)

    @property
    def num_cells(self) -> int:
        return int(self.values.size)

    @property
    def breakpoints(self) -> np.ndarray:
        return np.linspace(*self.domain, self.values.size + 1)

    def __call__(self, x):
        """Value of the half-open cell holding x; hi is in the last cell."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                      0, self.values.size - 1)
        return self.values[idx]
