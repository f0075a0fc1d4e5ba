"""Numerical verification toolkit for measure-correction constructions:
CDF-backed Borel measures, Fourier-Stieltjes coefficients and Wiener
averages, density-1 index sets, M-set measure asymptotics, the
piecewise-linear corrector, and the certified large-set assembly."""

from .assembly import (CellResult, ClaimResult, DemoResult, claim_run,
                       partial_sum_diagnostics, theorem_demo)
from .corrector import (CorrectorLayout, CorrectorParams, build_psi,
                        check_corrector, choose_r, kernel_sup, layout,
                        running_integral_sup)
from .errors import DomainError, MeasureSpecError, QuadratureError
from .fourier import IndexSet, Spectrum, build_lambda, spectrum, wiener_scan
from .measures import Measure, MeasureSpec, build_measure, normalize
from .msets import (ConvergenceScan, MSetSpec, mset_masses, proposition_scan,
                    pushforward_arc_mass)
from .piecewise import PiecewiseLinearFn, StepFunction

__version__ = "0.1.0"
