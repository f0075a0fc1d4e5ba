"""The names and parameter lists that bench/ calls.

bench/run.py and bench/workloads.py reach into menshov by these names; a
rename or a changed parameter list would make a bench workload fail or read
zero, so it fails here first.
"""

import inspect

import numpy as np
import pytest

import menshov
from menshov import assembly, cli, corrector, fourier, msets
from menshov.fourier import IndexSet
from menshov.measures import Measure
from menshov.piecewise import PiecewiseLinearFn

SURFACE = [
    (cli.main, ["argv"]),
    (menshov.MeasureSpec.from_dict, ["d"]),
    (menshov.build_measure, ["spec"]),
    (menshov.MSetSpec, ["interval", "n", "sigma", "tau"]),
    (menshov.CorrectorParams, ["c", "d", "gamma", "eps", "nu", "r"]),
    (corrector.layout, ["params"]),
    (corrector.build_psi, ["lay", "gamma", "nu"]),
    (corrector.kernel_sup, ["psi", "j_max", "x_grid", "nu", "gamma"]),
    (Measure.cont, ["self", "x"]),
    (Measure.interval_mass, ["self", "a", "b"]),
    (IndexSet.__len__, ["self"]),
    # the f-counting wrapper takes f as theorem_demo's first argument
    (assembly.theorem_demo,
     ["f", "mu", "eps", "uniform_gap", "kappa_cap", "r_cap"]),
    (assembly.claim_run,
     ["phi", "mu", "nu", "eps_seq", "kappa_cap", "r_cap", "refinement"]),
    (fourier.build_lambda, ["nu", "K", "J", "N_max", "m", "refinement"]),
    (msets.proposition_scan, ["mu", "interval", "sigma", "tau", "lam"]),
    (PiecewiseLinearFn.__call__, ["self", "x"]),
]


@pytest.mark.parametrize("func, params", SURFACE,
                         ids=[f.__qualname__ for f, _ in SURFACE])
def test_bench_calls_keep_their_parameter_lists(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_measure_keeps_atom_positions():
    mu = menshov.build_measure(menshov.MeasureSpec.from_dict(
        {"kind": "atomic", "atoms": [[0.5, 1.0]], "domain": [0.0, 1.0]}))
    assert isinstance(mu.atom_positions, np.ndarray)
    assert mu.atom_positions.tolist() == [0.5]
