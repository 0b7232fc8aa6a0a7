import math

import numpy as np
import pytest

import mmreach as mm
from mmreach.config import parse_config
from mmreach.errors import (
    DimensionMismatchError,
    EmptyIntersectionError,
    SignIndefiniteError,
)
from mmreach import multiorder
from mmreach.multiorder import run_reach

T1 = np.array([[1.0, 1.0], [0.0, 1.0]])
T2 = np.array([[1.0, 4.0], [-1.0, 1.0]])


def test_transform_plan_validation(bilinear):
    spec = mm.ReachSpec(1.0, 1e-2)
    with pytest.raises(DimensionMismatchError):
        mm.reach_intersection(bilinear, (), [np.zeros(2)], spec)


def test_default_transform_family():
    fam = mm.default_transform_family(1)
    assert len(fam) == 1 and np.allclose(fam[0], np.eye(2))
    fam = mm.default_transform_family(2)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert np.allclose(fam[1], [[c, -s], [s, c]])
    fam = mm.default_transform_family(10)
    assert len(fam) == 10
    angles = [math.atan2(t[1, 0], t[0, 0]) for t in fam]
    for i in range(10):
        for j in range(i + 1, 10):
            assert abs(angles[j] - angles[i]) >= math.pi / 20 - 1e-12
    with pytest.raises(DimensionMismatchError):
        mm.default_transform_family(0)


def test_identity_transform_reduces_to_box_reach(bilinear):
    """With the identity shape the parallelotope pipeline is the box pipeline."""
    x0 = mm.Box([0.0, -0.25], [0.75, 0.25])
    spec = mm.ReachSpec(1.0, 2e-3)
    box = mm.reach_box(bilinear, x0, spec)
    ptope = mm.reach_parallelotope(bilinear, mm.Parallelotope(np.eye(2), x0), spec)
    assert np.max(np.abs(ptope.coords.lo - box.lo)) <= 1e-12
    assert np.max(np.abs(ptope.coords.hi - box.hi)) <= 1e-12


def test_reach_parallelotope_contains_samples(bilinear, example1_ptope):
    spec = mm.ReachSpec(1.0, 2e-3)
    ptope = mm.reach_parallelotope(bilinear, example1_ptope, spec)
    res = mm.sample_endpoints(bilinear, example1_ptope, spec,
                              mm.SampleConfig(count=3000, seed=1))
    rep = mm.audit_containment(res.points, ptope)
    assert rep.violations == 0


def test_monotone_transform_gives_face_tight_parallelotope(cubic):
    """Every face of the sheared-monotone bound is touched by an extreme flow."""
    spec = mm.ReachSpec(1.0, 1e-3)
    y0 = np.linalg.solve(T1, [1.0, 1.0])
    x0 = mm.Parallelotope(T1, mm.Box(y0, y0))
    ptope = mm.reach_parallelotope(cubic, x0, spec)
    trans = mm.transform(cubic, T1)
    lo_end = mm.simulate(trans, y0, [-1.0], spec).final_state
    hi_end = mm.simulate(trans, y0, [1.0], spec).final_state
    for j in range(2):
        assert min(abs(lo_end[j] - ptope.coords.lo[j]),
                   abs(hi_end[j] - ptope.coords.lo[j])) <= 1e-3
        assert min(abs(lo_end[j] - ptope.coords.hi[j]),
                   abs(hi_end[j] - ptope.coords.hi[j])) <= 1e-3


def test_reach_intersection_single_identity_is_box(bilinear):
    x0 = mm.Box([0.0, -0.25], [0.75, 0.25])
    spec = mm.ReachSpec(1.0, 2e-3)
    result = mm.reach_intersection(bilinear, (np.eye(2),), x0.corners(), spec)
    box = mm.reach_box(bilinear, x0, spec)
    want_area = float(np.prod(box.hi - box.lo))
    assert result.areas[0] == pytest.approx(want_area, rel=1e-12)
    assert len(result.parallelotopes) == 1


def test_reach_plan_lists_each_member_with_its_config_location(
        example1_ptope):
    box = mm.Box([0.0, -0.25], [0.75, 0.25])
    verts = [np.array([0.0, 0.0]), np.array([1.0, -1.0]), np.array([0.5, 2.0])]
    plan = mm.reach_plan(verts, (np.eye(2), T1))
    assert [where for where, _ in plan] == ["transforms", "transforms"]
    for (_, member), shape in zip(plan, (np.eye(2), T1)):
        assert member == mm.Parallelotope(shape, mm.bounding_coords(verts, shape))
    assert mm.reach_plan(box, (T1,)) == [
        ("transforms", mm.Parallelotope(T1, mm.bounding_coords(box.corners(), T1)))]
    other = mm.Parallelotope(T2, box)
    union = mm.UnionInitialSet((example1_ptope, other))
    assert mm.reach_plan(union, None) == [
        ("initial_set.members[0].shape", example1_ptope),
        ("initial_set.members[1].shape", other)]
    assert mm.reach_plan(example1_ptope, None) == [
        ("initial_set.shape", example1_ptope)]
    # a box stays a box, and a bare vertex set reaches as its bounding box
    assert mm.reach_plan(box, None) == [("initial_set", box)]
    (where, member), = mm.reach_plan(verts, None)
    assert where == "initial_set" and type(member) is mm.Box
    assert member == mm.Box([0.0, -1.0], [1.0, 2.0])


def test_reach_intersection_of_a_region_is_that_of_its_corners(bilinear,
                                                               example1_ptope):
    spec = mm.ReachSpec(0.5, 1e-2)
    shapes = mm.default_transform_family(3)
    from_region = mm.reach_intersection(bilinear, shapes, example1_ptope, spec)
    from_corners = mm.reach_intersection(bilinear, shapes,
                                         example1_ptope.corners(), spec)
    assert from_region.parallelotopes == from_corners.parallelotopes
    assert from_region.areas == from_corners.areas
    assert from_region.intersection == from_corners.intersection


def test_reach_intersection_areas_non_increasing(bilinear, example1_ptope):
    spec = mm.ReachSpec(1.0, 5e-3)
    verts = mm.ptope_vertices(example1_ptope)
    result = mm.reach_intersection(bilinear, mm.default_transform_family(5), verts,
                                   spec)
    assert len(result.areas) == 5
    assert all(b <= a + 1e-12 for a, b in zip(result.areas, result.areas[1:]))
    assert result.intersection is not None


def test_reach_intersection_two_transforms_cut_area(cubic):
    """A second shape strictly cuts the first parallelogram's area."""
    spec = mm.ReachSpec(1.0, 2e-3)
    start = [np.array([1.0, 1.0])]
    result = mm.reach_intersection(cubic, (T1, T2), start, spec)
    assert result.areas[1] < result.areas[0] - 1e-9
    res = mm.sample_endpoints(
        cubic, mm.Parallelotope(T1, mm.bounding_coords(start, T1)),
        spec, mm.SampleConfig(count=2000, seed=2),
    )
    for ptope in result.parallelotopes:
        assert mm.audit_containment(res.points, ptope).violations == 0


def test_run_reach_single_member_union_matches_parallelotope(trig):
    t = np.array([[-1.0, -0.5], [0.0, math.sqrt(3) / 2]])
    off = np.linalg.solve(t, [1.0, 1.0])
    lo, hi = np.array([-1.0, 0.0]) + off, np.array([0.0, 1.0]) + off
    cfg = parse_config({
        "system": "trig",
        "initial_set": {"type": "union", "members": [
            {"shape": t.tolist(), "lo": lo.tolist(), "hi": hi.tolist()}]},
        "horizon": 0.5,
        "dt": 2e-3,
    })
    single = run_reach(cfg)
    direct = mm.reach_parallelotope(trig, mm.Parallelotope(t, mm.Box(lo, hi)),
                                    cfg.spec)
    assert single.kind == "union" and len(single.parallelotopes) == 1
    assert np.allclose(single.parallelotopes[0].coords.lo, direct.coords.lo, atol=0)
    assert np.allclose(single.parallelotopes[0].coords.hi, direct.coords.hi, atol=0)


def test_reach_intersection_nd_reports_volume():
    s = mm.SystemDef.from_strings(
        3, 1, ["-x1 + w1", "-x2 + w1", "-x3 + w1"], [0.0], [0.1]
    )
    spec = mm.ReachSpec(0.5, 1e-2)
    shapes = (np.eye(3), np.diag([1.0, 2.0, 1.0]))
    verts = mm.Box([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]).corners()
    result = mm.reach_intersection(s, shapes, verts, spec)
    assert result.intersection is None
    assert not result.areas
    assert result.volume is not None and result.volume > 0
    assert result.volume_ci is not None


def test_backward_parallelotope_contains_witnesses(bilinear, example1_ptope):
    spec = mm.ReachSpec(1.0, 2e-3, "backward")
    back = mm.reach_parallelotope(bilinear, example1_ptope, spec)
    wit = mm.backward_witnesses(
        bilinear, example1_ptope, mm.ReachSpec(1.0, 2e-3),
        mm.SampleConfig(count=30000, seed=3), mm.Box([-3, -3], [3, 3]),
    )
    assert len(wit) > 100
    rep = mm.audit_containment(wit, back)
    assert rep.violations == 0


def test_run_reach_builds_every_transform_with_the_decomposition_seed():
    """The configured seed, not a default, drives each transform's sampling."""
    cfg = parse_config({
        "system": {"n": 2, "m": 1, "field": ["x1*x2 + w1", "-x2"],
                   "w_lo": [0.0], "w_hi": [0.1]},
        "initial_set": {"type": "box", "lo": [0.0, 0.0], "hi": [0.1, 0.1]},
        "horizon": 0.1,
        "dt": 0.01,
        "decomposition": {"method": "jacobian_sign", "domain_lo": [-1.0, -1.0],
                          "domain_hi": [1.0, 1.0], "seed": 3},
        "transforms": {"matrices": [T1.tolist(), np.eye(2).tolist()]},
    })
    with pytest.raises(SignIndefiniteError) as got:
        run_reach(cfg)
    with pytest.raises(SignIndefiniteError) as want:
        mm.jacobian_sign_decomposition(mm.transform(cfg.system, T1),
                                       cfg.method_options["domain"], seed=3)
    assert got.value.entry == want.value.entry
    assert got.value.witnesses == want.value.witnesses


def test_disjoint_members_with_area_are_an_empty_intersection(bilinear,
                                                                 monkeypatch):
    """Members that have area and clip to nothing still blame an upstream
    step; only flat members are reported as unsupported."""
    squares = iter([mm.Parallelotope(np.eye(2), mm.Box([0.0, 0.0], [1.0, 1.0])),
                    mm.Parallelotope(np.eye(2), mm.Box([2.0, 0.0], [3.0, 1.0]))])
    monkeypatch.setattr(multiorder, "reach_parallelotope",
                        lambda *args, **kwargs: next(squares))
    with pytest.raises(EmptyIntersectionError):
        mm.reach_intersection(bilinear, [np.eye(2), np.eye(2)], [np.zeros(2)],
                              mm.ReachSpec(1.0, 1e-2))
