"""Piecewise-linear functions: evaluation, exact antiderivatives, and the
closed-form Fourier transform of each linear segment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewiseLinearFn", "StepFunction", "fourier_partial_sums"]


class PiecewiseLinearFn:
    """Continuous piecewise-linear function, zero outside its breakpoints.

    Linear between consecutive breakpoints; immutable after construction.
    """

    def __init__(self, breakpoints, values):
        xs = np.asarray(breakpoints, dtype=float)
        ys = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d breakpoint/value arrays, size >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.xs = xs
        self.ys = ys
        # exact antiderivative at breakpoints (trapezoid per segment)
        seg = np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0
        self.antideriv = np.concatenate([[0.0], np.cumsum(seg)])

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys, left=0.0, right=0.0)

    def integral(self) -> float:
        return float(self.antideriv[-1])

    def integral_to(self, xi):
        """Exact running integral from -inf (equivalently 0) to xi."""
        xi = np.asarray(xi, dtype=float)
        idx = np.clip(np.searchsorted(self.xs, xi) - 1, 0, self.xs.size - 2)
        x0, x1 = self.xs[idx], self.xs[idx + 1]
        y0, y1 = self.ys[idx], self.ys[idx + 1]
        t = np.clip(xi, x0, x1) - x0
        slope = (y1 - y0) / (x1 - x0)
        val = self.antideriv[idx] + y0 * t + slope * t * t / 2.0
        val = np.where(xi <= self.xs[0], 0.0, val)
        val = np.where(xi >= self.xs[-1], self.antideriv[-1], val)
        return val if val.ndim else float(val)

    def running_integral_extrema(self):
        """Candidate (xi, integral) pairs for extrema of the running integral.

        The antiderivative is piecewise quadratic, so it suffices to check
        the breakpoints and the interior zero crossings of the function.
        """
        x0, x1, y0, y1 = self.xs[:-1], self.xs[1:], self.ys[:-1], self.ys[1:]
        cross = y0 * y1 < 0  # interior zero crossing -> quadratic extremum
        xc = x0 + y0 / np.where(cross, y0 - y1, 1.0) * (x1 - x0)
        vc = self.antideriv[:-1] + y0 * (xc - x0) / 2.0
        # per segment: its crossing, if any, then its right breakpoint
        keep = np.column_stack([cross, np.ones_like(cross)])
        cand_x = np.column_stack([xc, x1])[keep]
        cand_v = np.column_stack([vc, self.antideriv[1:]])[keep]
        return (np.concatenate([[self.xs[0]], cand_x]),
                np.concatenate([[0.0], cand_v]))

    def transform(self, omega):
        """Psi(w) = integral f(t) e^{iwt} dt at every w of the 1-d omega.

        Exact on a segment [a, a + h] with end values y0, y1:
        e^{iwa} h [y0 phi2(iwh) + y1 (phi1 - phi2)(iwh)]; phi1 and phi2
        take their Taylor series on short segments, where the closed forms
        would cancel.
        """
        w = np.asarray(omega, dtype=float)[:, None]
        a, h = self.xs[:-1], np.diff(self.xs)
        hy1, hdy = h * self.ys[1:], h * (self.ys[:-1] - self.ys[1:])
        phi1, phi2 = _phi12(1j * w * h)
        return (np.exp(1j * w * a) * (hy1 * phi1 + hdy * phi2)).sum(axis=1)

    def fourier_coefficients(self, N: int):
        """c_n = (1/2 pi) integral f(t) e^{-int} dt, n = 0..N; period 2 pi."""
        return self.transform(-np.arange(N + 1)) / (2.0 * np.pi)


_INV_FACT = 1.0 / np.cumprod([1.0, *range(1, 19)])  # 1/k!, k = 0..18


def _phi12(z: np.ndarray):
    """(e^z - 1)/z and (e^z - 1 - z)/z^2; 17 Taylor terms below |z| = 0.5."""
    small = np.abs(z) < 0.5
    big = ~small
    phi1, phi2, zb = np.empty_like(z), np.empty_like(z), z[big]
    em1 = np.exp(zb) - 1.0
    phi1[big], phi2[big] = em1 / zb, (em1 - zb) / (zb * zb)
    zs = z[small]
    t = np.repeat(_INV_FACT[17:, None], zs.size, axis=1).astype(complex)
    for k in range(15, -1, -1):  # both series by Horner, in place
        t *= zs
        t += _INV_FACT[k + 1:k + 3, None]  # remainder below 1e-20
    phi1[small], phi2[small] = t
    return phi1, phi2


def fourier_partial_sums(coeffs, x):
    """Partial sums S_N at points x for every N = 0..len(coeffs)-1.

    coeffs are c_0..c_Nmax of a real function; S_N = c_0 + 2 Re sum c_n e^{inx}.
    Returns an array of shape (Nmax+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    n = np.arange(1, len(coeffs))
    modes = 2.0 * np.real(coeffs[1:, None]
                          * np.exp(1j * n[:, None] * x[None, :]))
    sums = np.vstack([np.zeros_like(x), np.cumsum(modes, axis=0)])
    return np.real(coeffs[0]) + sums


@dataclass(frozen=True, eq=False)  # == on the array fields is ambiguous
class StepFunction:
    """Step function on an interval: constant value per cell."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.breakpoints, dtype=float)
        ys = np.asarray(self.values, dtype=float)
        if ys.size < 1 or xs.size != ys.size + 1:
            raise ValueError("need at least one value and one more "
                             "breakpoint than values")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", ys)

    @property
    def num_cells(self) -> int:
        return int(self.values.size)

    @property
    def domain(self):
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def is_equal_length(self) -> bool:
        w = np.diff(self.breakpoints)
        return bool(np.all(np.abs(w - w.mean()) <= 1e-9 * w.mean()))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                      0, self.values.size - 1)
        return self.values[idx]

    @staticmethod
    def equal_cells(domain, values) -> "StepFunction":
        values = np.asarray(values, dtype=float)
        xs = np.linspace(domain[0], domain[1], values.size + 1)
        return StepFunction(xs, values)
