"""Property tests of how measures compose: interval additivity across split
points (atoms on endpoints included), mixture linearity, the normalize round
trip, and the refusal of every non-finite numeric spec field."""

import copy
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from menshov import MeasureSpec, MeasureSpecError, build_measure, normalize

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)

GRID = [k / 16 for k in range(17)]  # dyadic, so affine maps of them are exact
grid_points = st.sampled_from(GRID)
split_points = st.one_of(grid_points, st.floats(0.0, 1.0))
weights = st.floats(0.1, 4.0)

lebesgue_docs = weights.map(
    lambda s: {"kind": "lebesgue", "domain": [0.0, 1.0], "scale": s})
cantor_docs = st.builds(
    lambda levels, total: {"kind": "cantor", "levels": levels, "total": total,
                           "domain": [0.0, 1.0]},
    st.integers(1, 12), weights)
atomic_docs = st.lists(st.tuples(grid_points, weights).map(list),
                       min_size=1, max_size=4).map(
    lambda atoms: {"kind": "atomic", "atoms": atoms, "domain": [0.0, 1.0]})


@st.composite
def cdf_table_docs(draw):
    """A table over [0, 1] whose rows may repeat an x: a jump, an atom."""
    inner = draw(st.lists(st.sampled_from(GRID[1:-1]), unique=True,
                          max_size=4))
    rows, F = [], 0.0
    for x in [0.0, *sorted(inner), 1.0]:
        if rows:
            F += draw(weights)
        rows.append([x, F])
        if draw(st.booleans()):
            F += draw(weights)
            rows.append([x, F])
    return {"kind": "cdf_table", "table": rows}


simple_docs = st.one_of(lebesgue_docs, cantor_docs, atomic_docs,
                        cdf_table_docs())
mixture_docs = st.lists(
    st.builds(lambda w, spec: {"weight": w, "spec": spec}, weights,
              simple_docs),
    min_size=1, max_size=3).map(
    lambda parts: {"kind": "mixture", "components": parts})
measure_docs = st.one_of(simple_docs, mixture_docs)


@PROPERTY
@given(doc=measure_docs, points=st.lists(split_points, min_size=3,
                                         max_size=3))
def test_interval_additivity_across_split_points(doc, points):
    m = build_measure(MeasureSpec.from_dict(doc))
    a, b, c = sorted(points)
    atom_b = m.interval_mass(b, b)  # counted by both closed halves
    whole = m.interval_mass(a, c)
    halves = m.interval_mass(a, b) + m.interval_mass(b, c) - atom_b
    assert whole == pytest.approx(halves, rel=1e-12, abs=1e-12 * m.total_mass)
    if b in m.atom_positions:
        assert atom_b == pytest.approx(
            m.atom_masses[m.atom_positions == b].sum(), rel=1e-12)


@PROPERTY
@given(doc=mixture_docs, points=st.lists(split_points, min_size=2,
                                         max_size=2))
def test_mixture_mass_is_weighted_sum_of_components(doc, points):
    spec = MeasureSpec.from_dict(doc)
    m = build_measure(spec)
    a, b = sorted(points)
    parts = [(w, build_measure(s)) for w, s in spec.components]
    total = math.fsum(w * c.total_mass for w, c in parts)
    assert m.total_mass == pytest.approx(total, rel=1e-12)
    want = math.fsum(w * c.interval_mass(a, b) for w, c in parts)
    assert m.interval_mass(a, b) == pytest.approx(want, rel=1e-12,
                                                  abs=1e-12 * total)


@PROPERTY
@given(doc=measure_docs,
       ends=st.lists(grid_points, min_size=2, max_size=2, unique=True),
       sub=st.lists(st.integers(0, 64), min_size=2, max_size=2))
def test_normalize_round_trip(doc, ends, sub):
    m = build_measure(MeasureSpec.from_dict(doc))
    a, b = sorted(ends)
    M = float(m.interval_mass(a, b))
    assume(M > 1e-9 * m.total_mass)  # normalize refuses a null interval
    n = normalize(m, (a, b))
    assert n.total_mass == pytest.approx(1.0, rel=1e-12)
    s, t = sorted(k / 64 for k in sub)
    back = m.interval_mass(a + s * (b - a), a + t * (b - a)) / M
    assert n.interval_mass(s, t) == pytest.approx(
        back, rel=1e-12, abs=1e-12 * m.total_mass / M)


@PROPERTY
@given(cont=st.one_of(lebesgue_docs, cantor_docs),
       weight=st.floats(-9.0, 0.0).map(lambda e: 10.0**e),
       left=st.lists(st.tuples(st.floats(0.0, 0.24), weights), min_size=1,
                     max_size=3),
       inside=st.lists(st.tuples(st.floats(0.4, 0.6),
                                 st.floats(-13.0, -3.0).map(lambda e: 10.0**e)),
                       max_size=3))
def test_normalize_total_is_one_when_atoms_left_of_interval_outweigh_it(
        cont, weight, left, inside):
    # m(I) as a difference of prefix sums over all atoms would cancel here
    # (by up to 6.6e-8 of the total in 300 random atom mixtures)
    doc = {"kind": "mixture", "components": [
        {"weight": weight, "spec": cont},
        {"weight": 1.0, "spec": {"kind": "atomic", "atoms": left + inside}}]}
    n = normalize(build_measure(MeasureSpec.from_dict(doc)), (0.25, 0.75))
    assert abs(n.total_mass - 1.0) <= 16 * 2.0**-52  # a few ulps per term


def _numeric_paths(doc, path=()):
    """Paths to every number in a spec document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "kind":
                yield from _numeric_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numeric_paths(value, path + (i,))
    else:
        yield path


@PROPERTY
@given(doc=measure_docs, data=st.data(),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_every_non_finite_spec_field_is_refused(doc, data, value):
    MeasureSpec.from_dict(doc)  # the document itself is valid
    path = data.draw(st.sampled_from(list(_numeric_paths(doc))))
    bad = copy.deepcopy(doc)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(MeasureSpecError):
        MeasureSpec.from_dict(bad)
