"""Property tests of the corrector over random parameters: choose_r
returns only an r that CorrectorParams accepts, the r below it is refused,
and the built layout and psi pass every check_corrector flag."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from menshov import (CorrectorParams, build_psi, check_corrector, choose_r,
                     layout)
from menshov.corrector import MAX_LAYOUT_NODES

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)


@PROPERTY
@given(c=st.floats(-100.0, 100.0), width=st.floats(1e-3, 10.0),
       gamma=st.floats(-10.0, 10.0),  # draws 0.0 too
       eps=st.floats(1e-3, 1.0), nu=st.integers(9, 64))
def test_least_admissible_r_builds_a_corrector_passing_every_check(
        c, width, gamma, eps, nu):
    d = c + width
    r = choose_r(c, d, gamma, eps, nu)
    assume(r <= 256)  # keeps psi below 3 (nu - 4) r + 3 < 50k breakpoints
    params = CorrectorParams(c, d, gamma, eps, nu, r)
    if r > 1:
        with pytest.raises(ValueError, match="inadmissible"):
            CorrectorParams(c, d, gamma, eps, nu, r - 1)
    lay = layout(params)
    checks = check_corrector(lay, build_psi(lay, gamma, nu), gamma, eps)
    assert len(checks) == 5 and all(checks.values())


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(c=st.floats(-100.0, 100.0), width=st.floats(1e-3, 10.0),
       load=st.floats(0.0, 2.0),  # 4 |gamma| (d - c) / eps, in caps
       eps=st.floats(1e-3, 1.0),
       nu=st.one_of(st.integers(0, 64), st.floats(8.0, 64.0),
                    st.integers(MAX_LAYOUT_NODES - 64, MAX_LAYOUT_NODES + 1)))
@example(c=0.0, width=1.0, load=1.0, eps=1.0, nu=16)  # least q: cap + 16
@example(c=0.0, width=1.0, load=0.0, eps=0.1, nu=9.5)
@example(c=0.0, width=1.0, load=0.0, eps=0.1, nu=MAX_LAYOUT_NODES + 1)
def test_choose_r_returns_only_what_corrector_params_accepts(c, width, load,
                                                            eps, nu):
    d = c + width
    gamma = load * MAX_LAYOUT_NODES * eps / (4.0 * width)
    try:
        r = choose_r(c, d, gamma, eps, nu)
    except ValueError:
        return
    assert CorrectorParams(c, d, gamma, eps, nu, r).r == r
    if r > 1:
        with pytest.raises(ValueError, match="inadmissible"):
            CorrectorParams(c, d, gamma, eps, nu, r - 1)
