"""Piecewise-linear functions: evaluation, exact antiderivatives, and
closed-form Fourier coefficients of each linear segment."""

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

    def fourier_coefficients(self, N: int, period: float = 2.0 * np.pi):
        """Coefficients c_n, n = 0..N, of the period-`period` extension.

        c_n = (1/period) * integral of f(t) exp(-2 pi i n t / period) dt,
        with each linear segment integrated in closed form.
        """
        a0 = self.integral() / period
        if N == 0:
            return np.array([a0 + 0j])
        n = np.arange(1, N + 1)
        s = -1j * (2.0 * np.pi / period) * n  # column per segment below
        x0, x1 = self.xs[:-1], self.xs[1:]
        y0, y1 = self.ys[:-1], self.ys[1:]
        slope = (y1 - y0) / (x1 - x0)
        # antiderivative of (a + b t) e^{s t} is e^{s t} ((a + b t)/s - b/s^2)
        S = s[:, None]
        E1 = np.exp(S * x1[None, :])
        E0 = np.exp(S * x0[None, :])
        term1 = E1 * (y1[None, :] / S - slope[None, :] / S**2)
        term0 = E0 * (y0[None, :] / S - slope[None, :] / S**2)
        coeffs = (term1 - term0).sum(axis=1) / period
        return np.concatenate([[a0 + 0j], coeffs])


def fourier_partial_sums(coeffs, x, period: float = 2.0 * np.pi):
    """Partial sums S_N at points x for every N = 0..len(coeffs)-1.

    coeffs are c_0..c_Nmax of a real function; S_N = c_0 + 2 Re sum c_n e^{inx}.
    Returns an array of shape (Nmax+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    Nmax = len(coeffs) - 1
    n = np.arange(1, Nmax + 1)
    modes = 2.0 * np.real(coeffs[1:, None]
                          * np.exp(1j * (2.0 * np.pi / period)
                                   * n[:, None] * x[None, :]))
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
        if xs.size != ys.size + 1:
            raise ValueError("need one more breakpoint than values")
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
