"""Rate regions: closed forms, vertex geometry, general-channel bounds."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otbec import rates
from otbec.rates import (
    REGIONS,
    ChannelSpec,
    RateRegion,
    bec_information_terms,
    containment_note,
    general_upper_bounds,
    pt2pt_bounds,
    region_colluding_inner,
    region_colluding_outer,
    region_noncolluding_capacity,
    region_noncolluding_outer,
    region_timesharing,
    vertices,
)

probs = st.floats(0.05, 0.95)


def vertex_set(region):
    return {(round(x, 9), round(y, 9)) for x, y in vertices(region)}


def test_bec_information_terms():
    assert bec_information_terms(0.0) == (1.0, 0.0)
    assert bec_information_terms(1.0) == (0.0, 1.0)
    i, h = bec_information_terms(0.3)
    assert (i, h) == (pytest.approx(0.7), pytest.approx(0.3))
    assert min(i, h) == pytest.approx(min(0.3, 0.7))
    with pytest.raises(ValueError):
        bec_information_terms(1.2)


def test_noncolluding_outer_plugins():
    r = region_noncolluding_outer(0.5, 0.5)
    assert vertex_set(r) == {(0.0, 0.0), (0.25, 0.0), (0.0, 0.25)}
    r = region_noncolluding_outer(0.7, 0.4)
    assert vertex_set(r) == {(0.0, 0.0), (0.28, 0.0), (0.0, 0.28)}


def test_noncolluding_capacity_plugins():
    r = region_noncolluding_capacity(0.5, 0.5)
    assert vertex_set(r) == {(0.0, 0.0), (0.5, 0.0), (0.5, 0.25), (0.25, 0.5), (0.0, 0.5)}


def test_colluding_region_plugins():
    outer = region_colluding_outer(0.6, 0.8)
    by_axis = {(a1, a2): b for a1, a2, b in outer.constraints}
    assert by_axis[(1.0, 0.0)] == pytest.approx(0.8 * 0.4)  # 0.32
    assert by_axis[(0.0, 1.0)] == pytest.approx(0.6 * 0.2)  # 0.12
    inner = region_colluding_inner(0.7, 0.7)
    assert vertex_set(inner) == {
        (0.0, 0.0), (0.21, 0.0), (0.21, 0.12), (0.12, 0.21), (0.0, 0.21),
    }


def test_degenerate_channels_collapse_to_origin():
    # the time-sharing hull of one point is that point
    for name, region_fn in REGIONS.items():
        assert vertices(region_fn(1.0, 1.0)) == [(0.0, 0.0)], name


def test_a_link_that_erases_everything_leaves_a_segment():
    # p1 = 1 leaves R1 = 0; the time-sharing hull of a segment is that segment,
    # the colluding-inner region's
    for name, region_fn in REGIONS.items():
        assert vertices(region_fn(1.0, 0.5)) == [(0.0, 0.0), (0.0, 0.5)], name


@given(probs, probs)
def test_every_vertex_is_feasible(p1, p2):
    regions = [
        region_noncolluding_outer(p1, p2),
        region_noncolluding_capacity(p1, p2),
        region_colluding_outer(p1, p2),
        region_colluding_inner(p1, p2),
        *region_timesharing(p1, p2),
    ]
    for region in regions:
        for x, y in vertices(region):
            assert region.feasible(x, y), (region.label, x, y)
            assert x >= -1e-12 and y >= -1e-12


@given(probs, probs)
def test_colluding_inner_contained_in_outer(p1, p2):
    note = containment_note(region_colluding_outer(p1, p2), region_colluding_inner(p1, p2))
    assert note is None


def test_capacity_escapes_outer_and_is_reported():
    note = containment_note(region_noncolluding_outer(0.5, 0.5),
                            region_noncolluding_capacity(0.5, 0.5))
    assert note is not None
    assert "not contained" in note


def test_timesharing_hull_sum_bound():
    _, _, hull = region_timesharing(0.7, 0.7)
    # the slanted hull edge reproduces the inner sum bound 0.33
    slanted = [c for c in hull.constraints if c[0] > 1e-9 and c[1] > 1e-9]
    assert slanted
    a1, a2, b = slanted[0]
    assert b / a1 == pytest.approx(0.33, abs=1e-9)
    assert a2 / a1 == pytest.approx(1.0, abs=1e-9)


def test_region_registry_names_each_closed_form():
    p1, p2 = 0.7, 0.4
    assert list(REGIONS) == ["noncolluding-outer", "noncolluding-capacity", "colluding-outer",
                             "colluding-inner", "timesharing"]
    for name in ("noncolluding-outer", "noncolluding-capacity", "colluding-outer",
                 "colluding-inner"):
        assert REGIONS[name](p1, p2).label == name
    assert REGIONS["timesharing"](p1, p2) == region_timesharing(p1, p2)[2]


def test_timesharing_boxes_inside_hull():
    box1, box2, hull = region_timesharing(0.6, 0.8)
    for box in (box1, box2):
        for x, y in vertices(box):
            assert hull.feasible(x, y)


def test_general_bounds_match_closed_forms_theorem1():
    spec = ChannelSpec.bec_pair(0.7, 0.4)
    region = general_upper_bounds(spec, theorem="1", grid=101)
    by_axis = {(a1, a2): b for a1, a2, b in region.constraints}
    assert by_axis[(1.0, 0.0)] == pytest.approx(min(0.3, 0.7), abs=1e-6)
    assert by_axis[(0.0, 1.0)] == pytest.approx(min(0.6, 0.4), abs=1e-6)
    assert by_axis[(1.0, 1.0)] == pytest.approx(min(1 - 0.28, 0.28), abs=1e-6)


def test_general_bounds_match_closed_forms_theorem2():
    spec = ChannelSpec.bec_pair(0.7, 0.4)
    region = general_upper_bounds(spec, theorem="2", grid=101)
    by_axis = {(a1, a2): b for a1, a2, b in region.constraints}
    # R1 <= min{I(X;Y1), I(X;Y1|Y2), H(X|Y1 Y2)} = min{0.3, 0.12, 0.28}
    assert by_axis[(1.0, 0.0)] == pytest.approx(0.4 * 0.3, abs=1e-6)
    assert by_axis[(0.0, 1.0)] == pytest.approx(min(0.6, 0.7 * 0.6, 0.28), abs=1e-6)


@pytest.mark.parametrize("theorem", ["1", "2"])
def test_general_bounds_search_only_the_terms_their_theorem_reads(theorem, monkeypatch):
    # three informations and the pooled equivocation, then theorem 1's two
    # single-receiver equivocations or theorem 2's two cross-conditioned informations
    searched = []
    max_term = rates._max_term

    def counted(fn, grid):
        searched.append(fn)
        return max_term(fn, grid)

    monkeypatch.setattr(rates, "_max_term", counted)
    general_upper_bounds(ChannelSpec.bec_pair(0.7, 0.4), theorem=theorem, grid=101)
    assert len(searched) == 6


def test_general_bounds_monotone_under_grid_doubling():
    spec = ChannelSpec.bec_pair(0.55, 0.65)
    coarse = general_upper_bounds(spec, theorem="1", grid=101)
    fine = general_upper_bounds(spec, theorem="1", grid=201)
    cb = {(a1, a2): b for a1, a2, b in coarse.constraints}
    fb = {(a1, a2): b for a1, a2, b in fine.constraints}
    for key in cb:
        assert fb[key] >= cb[key] - 1e-9


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(("a", "b"), ((0.6, 0.5), (0.5, 0.5)))
    spec = ChannelSpec.bec_pair(0.3, 0.3)
    for row in spec.rows:
        assert sum(row) == pytest.approx(1.0)
    payload = spec.to_json()
    again = ChannelSpec.from_json(json.loads(json.dumps(payload)))
    assert again.outputs == spec.outputs
    assert np.allclose(again.rows, spec.rows)


@pytest.mark.parametrize("payload", [
    {"outputs": 5, "rows": [[1]]},
    {"outputs": [[0, 0]], "rows": [1, 2]},
    {"outputs": [[0, 0]]},
    [[0, 0], [1.0]],
], ids=["outputs-not-a-list", "rows-not-lists", "rows-missing", "not-an-object"])
def test_channel_spec_from_json_refuses_a_malformed_shape(payload):
    with pytest.raises(ValueError, match="list 'outputs' and a list of row lists 'rows'"):
        ChannelSpec.from_json(payload)


def test_pt2pt_bounds_forms():
    assert pt2pt_bounds(0.3) == (pytest.approx(0.3), pytest.approx(0.3))
    table = [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]]
    lo, hi = pt2pt_bounds(table)
    assert lo == pytest.approx(0.3) and hi == pytest.approx(0.3)
    with pytest.raises(ValueError):
        pt2pt_bounds([[0.6, 0.1, 0.3], [0.0, 0.7, 0.3]])


def test_rate_region_validation_and_json():
    with pytest.raises(ValueError):
        RateRegion("bad", ((1.0, 0.0, -0.5),))
    r = region_noncolluding_outer(0.5, 0.5)
    payload = r.as_json()
    assert payload["label"] == "noncolluding-outer"
    assert [1.0, 1.0, 0.25] in payload["constraints"]
    assert [0.25, 0.0] in payload["vertices"]


def test_vertices_reject_unbounded_region():
    open_region = RateRegion("open", ((1.0, 0.0, 0.5),))  # no cap on R2
    with pytest.raises(ValueError):
        vertices(open_region)
