import math

import numpy as np
import pytest

import mmreach as mm
from mmreach.errors import (
    DimensionMismatchError,
    GeometryError,
    OrderError,
    SizeLimitError,
)


def test_leq_basic():
    assert mm.leq([0, 0], [1, 1])
    assert not mm.leq([0, 2], [1, 1])
    assert mm.leq([1, 1], [1, 1])


def test_leq_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mm.leq([0, 0], [1, 1, 1])


def test_box_rejects_unordered_and_nonfinite():
    with pytest.raises(OrderError):
        mm.Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(GeometryError):
        mm.Box([0.0, np.nan], [1.0, 1.0])


def test_embedding_state_requires_order():
    with pytest.raises(OrderError):
        mm.EmbeddingState([1.0, 0.0], [0.0, 1.0])


def test_se_leq_examples():
    a = mm.EmbeddingState([0, 0], [1, 1])
    b = mm.EmbeddingState([0.2, 0.1], [0.9, 0.8])
    c = mm.EmbeddingState([-0.1, 0], [1, 1])
    assert mm.se_leq(a, b)
    assert not mm.se_leq(a, c)
    assert mm.se_leq(a, a)


def test_se_leq_is_box_inclusion(rng):
    """SE order on valid pairs is box inclusion, checked by membership probes."""
    for _ in range(50):
        lo = rng.uniform(-2, 2, 3)
        hi = lo + rng.uniform(0.2, 2, 3)
        outer = mm.EmbeddingState(lo, hi)
        if rng.uniform() < 0.5:
            # nested inner box
            ilo = lo + rng.uniform(0, 0.1, 3) * (hi - lo)
            ihi = hi - rng.uniform(0, 0.1, 3) * (hi - lo)
        else:
            # push one face outside
            ilo = lo.copy()
            ihi = hi.copy()
            j = rng.integers(3)
            ilo[j] = lo[j] - rng.uniform(0.01, 0.5)
        inner = mm.EmbeddingState(np.minimum(ilo, ihi), np.maximum(ilo, ihi))
        se = mm.se_leq(outer, inner)
        probes = rng.uniform(inner.lower, inner.upper, (20, 3))
        probe_inside = all(outer.box().contains(p, tol=0) for p in probes)
        if se:
            assert probe_inside
        else:
            # some corner of the inner box must escape the outer box
            corners_inside = all(
                outer.box().contains(c, tol=0) for c in inner.box().corners()
            )
            assert not corners_inside


def test_ptope_membership_examples(example1_ptope, skew_shape):
    # image of an interior coordinate point
    x = skew_shape @ np.array([1 / 8, -1 / 8])
    assert np.allclose(x, [3 / 8, 0.0])
    assert example1_ptope.contains(x)
    # hand solve: shape^-1 (10, 10) = (10, 0), far outside [0, 1/4] x [-1/4, 0]
    assert not example1_ptope.contains([10.0, 10.0])
    unit = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    assert unit.contains([0.5, 0.5])


def test_ptope_rejects_singular_and_ill_conditioned():
    with pytest.raises(GeometryError):
        mm.Parallelotope(np.array([[1.0, 2.0], [2.0, 4.0]]), mm.Box([0, 0], [1, 1]))
    with pytest.raises(GeometryError):
        mm.Parallelotope(
            np.array([[1e6, 0.0], [0.0, 1e-7]]), mm.Box([0, 0], [1, 1])
        )


def test_ptope_vertices_unit_square():
    unit = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    verts = mm.ptope_vertices(unit)
    assert np.allclose(verts, [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_ptope_vertices_example1(example1_ptope):
    # shape times the four corners of the coordinate box, by hand
    expected = {(0.5, -0.25), (0.75, 0.0), (0.25, 0.25), (0.0, 0.0)}
    got = {tuple(np.round(v, 12)) for v in mm.ptope_vertices(example1_ptope)}
    assert got == expected


def test_ptope_vertices_degenerate_and_guard(skew_shape):
    point = mm.Parallelotope(skew_shape, mm.Box([0.1, 0.2], [0.1, 0.2]))
    verts = mm.ptope_vertices(point)
    assert all(np.allclose(v, verts[0]) for v in verts)
    big = mm.Parallelotope(np.eye(21), mm.Box([0.0] * 21, [1.0] * 21))
    with pytest.raises(SizeLimitError):
        mm.ptope_vertices(big)


def test_ptope_vertices_ccw_with_negative_determinant():
    flip = mm.Parallelotope(np.array([[0.0, 1.0], [1.0, 0.0]]),
                            mm.Box([0, 0], [1, 2]))
    poly = mm.Polygon2D(np.array(mm.ptope_vertices(flip)))
    assert poly.area() == pytest.approx(2.0)


def test_vertices_are_members(rng):
    for _ in range(25):
        shape = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(shape)) < 0.1:
            continue
        lo = rng.uniform(-1, 1, 2)
        box = mm.Box(lo, lo + rng.uniform(0.1, 2, 2))
        ptope = mm.Parallelotope(shape, box)
        for v in mm.ptope_vertices(ptope):
            assert ptope.contains(v, tol=1e-9)


def test_bounding_coords_identity_fixed_point():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    box = mm.bounding_coords(verts, np.eye(2))
    assert np.allclose(box.lo, [0, 0]) and np.allclose(box.hi, [1, 1])


def test_bounding_coords_singleton(skew_shape):
    box = mm.bounding_coords([[0.3, 0.7]], skew_shape)
    expected = np.linalg.solve(skew_shape, [0.3, 0.7])
    assert np.allclose(box.lo, expected) and np.allclose(box.hi, expected)


def test_bounding_coords_hexagon():
    """Componentwise min/max of the transformed hexagon vertices."""
    t1 = np.array(
        [[-1.0, math.cos(2 * math.pi / 3)], [0.0, math.sin(2 * math.pi / 3)]]
    )
    verts = [
        (1 + math.cos(i * math.pi / 3), 1 + math.sin(i * math.pi / 3))
        for i in range(1, 7)
    ]
    coords = np.array([np.linalg.solve(t1, v) for v in verts])
    box = mm.bounding_coords(verts, t1)
    assert np.allclose(box.lo, coords.min(axis=0))
    assert np.allclose(box.hi, coords.max(axis=0))
    hull = mm.Parallelotope(t1, box)
    for v in verts:
        assert hull.contains(v, tol=1e-9)


def test_bounding_coords_rejects_empty_and_singular():
    with pytest.raises(DimensionMismatchError):
        mm.bounding_coords([], np.eye(2))
    with pytest.raises(GeometryError):
        mm.bounding_coords([[1, 1]], np.array([[1.0, 1.0], [1.0, 1.0]]))


def _rect(x0, x1, y0, y1):
    return mm.Polygon2D(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


def test_clip_axis_aligned_overlap():
    out = mm.clip_intersection_2d([_rect(0, 1, 0, 1), _rect(0.5, 1.5, 0, 1)])
    assert out.area() == pytest.approx(0.5)
    assert np.allclose(sorted(map(tuple, out.vertices)),
                       [(0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)])


def _vertex_sets_close(a, b, tol=1e-9):
    if len(a) != len(b):
        return False
    used = set()
    for va in a:
        hit = None
        for i, vb in enumerate(b):
            if i not in used and np.max(np.abs(np.asarray(va) - np.asarray(vb))) <= tol:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def test_clip_idempotent_and_commutative(rng):
    square = _rect(0, 1, 0, 1)
    self_clip = mm.clip_intersection_2d([square, square])
    assert _vertex_sets_close(self_clip.vertices, square.vertices)
    for _ in range(20):
        shape = rng.uniform(-1.5, 1.5, (2, 2))
        if abs(np.linalg.det(shape)) < 0.2:
            continue
        p = mm.ptope_polygon(
            mm.Parallelotope(shape, mm.Box([-0.5, -0.5], [0.6, 0.8]))
        )
        ab = mm.clip_intersection_2d([square, p])
        ba = mm.clip_intersection_2d([p, square])
        if ab is None:
            assert ba is None or ba.area() < 1e-9
            continue
        assert _vertex_sets_close(ab.vertices, ba.vertices)
        assert ab.area() <= min(square.area(), p.area()) + 1e-9


def test_clip_rotated_squares_make_octagon():
    """Unit square against its 45-degree rotation about the common center."""
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    square = mm.Parallelotope(np.eye(2), mm.Box([-0.5, -0.5], [0.5, 0.5]))
    tilted = mm.Parallelotope(rot, mm.Box([-0.5, -0.5], [0.5, 0.5]))
    out = mm.clip_intersection_2d([mm.ptope_polygon(square), mm.ptope_polygon(tilted)])
    assert len(out.vertices) == 8
    assert out.area() == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-12)


def test_clip_disjoint_returns_empty():
    assert mm.clip_intersection_2d([_rect(0, 1, 0, 1), _rect(2, 3, 0, 1)]) is None


def test_polygon_rejects_nonconvex():
    with pytest.raises(GeometryError):
        mm.Polygon2D(np.array([[0, 0], [2, 0], [1, 0.2], [0, 2.0]]))


def test_polygon_area_examples(example1_ptope):
    assert _rect(0, 1, 0, 1).area() == pytest.approx(1.0)
    hexagon = mm.Polygon2D(np.array([
        [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)
    ]))
    assert hexagon.area() == pytest.approx(3 * math.sqrt(3) / 2)
    # |det shape| times coordinate-box area: 3 * (1/4 * 1/4)
    poly = mm.ptope_polygon(example1_ptope)
    assert poly.area() == pytest.approx(3 / 16)


def test_polygon_area_degenerate():
    line = mm.Polygon2D(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert line.area() == 0.0


def test_ptope_area_matches_det_times_box(rng):
    for _ in range(25):
        shape = rng.uniform(-2, 2, (2, 2))
        det = abs(np.linalg.det(shape))
        if det < 0.1:
            continue
        lo = rng.uniform(-1, 1, 2)
        widths = rng.uniform(0.1, 1.5, 2)
        ptope = mm.Parallelotope(shape, mm.Box(lo, lo + widths))
        area = mm.ptope_polygon(ptope).area()
        assert area == pytest.approx(det * widths.prod(), rel=1e-9)


def test_union_membership_and_bounding_box():
    a = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    b = mm.Parallelotope(np.eye(2), mm.Box([2, 0], [3, 1]))
    union = mm.UnionInitialSet((a, b))
    assert union.contains([0.5, 0.5])
    assert union.contains([2.5, 0.5])
    assert not union.contains([1.5, 0.5])
    assert union.margin([2.5, 0.5]) == pytest.approx(0.5)
    bbox = union.bounding_box()
    assert np.allclose(bbox.lo, [0, 0]) and np.allclose(bbox.hi, [3, 1])


def test_unions_and_intersections_take_box_members():
    """Union bounding boxes, intersection volumes and corner sampling take
    Box members as well as parallelotopes."""
    a = mm.Box([0.0, 0.0], [1.0, 1.0])
    b = mm.Box([2.0, -1.0], [3.0, 0.5])
    bbox = mm.UnionInitialSet((a, b)).bounding_box()
    assert list(bbox.lo) == [0.0, -1.0] and list(bbox.hi) == [3.0, 1.0]
    rotated = mm.Parallelotope(np.array([[1.0, -1.0], [1.0, 1.0]]),
                               mm.Box([0.0, 0.0], [1.0, 1.0]))
    assert list(rotated.bounding_box().lo) == [-1.0, 0.0]
    assert list(rotated.bounding_box().hi) == [1.0, 2.0]
    vol, _ = mm.intersection_volume_mc([rotated, a], samples=20000, seed=1)
    assert vol == pytest.approx(0.5, abs=0.02)
    # corner starts of a box union come from the boxes' own corners
    res = mm.sample_endpoints(
        mm.preset_system("bilinear"), mm.UnionInitialSet((a, b)),
        mm.ReachSpec(0.1, 0.05),
        mm.SampleConfig(count=50, seed=0, init_mode="corners_plus_uniform"),
    )
    assert res.points.shape == (50, 2)


def test_polygon_margin_signs():
    square = _rect(0, 1, 0, 1)
    assert square.margin([0.5, 0.5]) == pytest.approx(0.5)
    assert square.margin([1.5, 0.5]) == pytest.approx(-0.5)


def _regions_2d():
    a = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    b = mm.Parallelotope(np.array([[1.0, 0.5], [0.0, 1.0]]), mm.Box([0.5, 0], [2, 1]))
    return [
        mm.Box([-1.0, -0.5], [1.0, 0.5]),
        b,
        mm.UnionInitialSet((a, b)),
        mm.RegionIntersection((a, b)),
        _rect(0, 1, 0, 2),
    ]


def test_region_scalar_margin_matches_margins(rng):
    pts = rng.uniform(-2.0, 3.0, size=(50, 2))
    for region in _regions_2d():
        margins = region.margins(pts)
        assert margins.shape == (50,)
        scalar = np.array([region.margin(p) for p in pts])
        assert np.allclose(scalar, margins, rtol=0.0, atol=1e-12)
        assert [region.contains(p) for p in pts] == list(margins >= -1e-12)


def test_region_margins_reject_dimension_mismatch():
    for region in _regions_2d():
        with pytest.raises(DimensionMismatchError):
            region.margins(np.zeros((4, 3)))
        with pytest.raises(DimensionMismatchError):
            region.contains([0.0, 0.0, 0.0])
