"""Property tests of the corrector over random admissible parameters: the
least admissible r builds, the r below it is refused, and the built layout
and psi pass every check_corrector flag."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from menshov import (CorrectorParams, build_psi, check_corrector, choose_r,
                     layout)

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
