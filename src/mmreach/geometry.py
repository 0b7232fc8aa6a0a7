"""Boxes, parallelotopes, order relations, and 2-D convex polygon operations.

Everything here is a pure function of immutable inputs; arrays are copied on
construction and frozen, so values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    GeometryError,
    OrderError,
    SizeLimitError,
)

CONDITION_LIMIT = 1e12
DET_LIMIT = 1e-12
MEMBERSHIP_TOL = 1e-12
DEDUP_TOL = 1e-12
MIN_CLIP_AREA = 1e-12  # a smaller intersection counts as empty

_VERTEX_DIM_LIMIT = 20


def _frozen_vector(values, name):
    arr = np.array(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{name} has non-finite entries: {arr}")
    arr.flags.writeable = False
    return arr


def _product(rows, mat):
    """``rows @ mat``, with a lone row computed as a pair: numpy multiplies
    one row in another summation order than the same row inside a larger
    product, so its result would differ in the last bit."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ mat)[:1]
    return rows @ mat


def invert_shape(shape):
    """Invert a shape matrix, rejecting singular or ill-conditioned input.

    Raises GeometryError when |det| <= 1e-12 or the condition number
    exceeds 1e12.
    """
    mat = np.array(shape, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"shape matrix must be square, got {mat.shape}")
    det = float(np.linalg.det(mat))
    if abs(det) <= DET_LIMIT:
        raise GeometryError(f"shape matrix is singular (|det| = {abs(det):.3e})")
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise GeometryError(f"shape matrix is ill-conditioned (cond = {cond:.3e})")
    return np.linalg.inv(mat)


class Region:
    """Membership through ``margins(pts)``: one signed margin per row of an
    (N, dim) array, >= 0 exactly for the points inside the region. Regions
    spanned by finitely many points list them with ``corners()``.

    Regions compare by value: the same type and equal fields, arrays
    elementwise. They are not hashable.
    """

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self) if f.compare]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)

    def _points(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points have shape {pts.shape}, region has dimension {self.dim}"
            )
        return pts

    def margin(self, x):
        """Signed margin of one point: positive inside, negative outside;
        the bits ``margins`` gives its row in any batch."""
        return float(self.margins(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return self.margin(x) >= -tol

    def corners(self):
        raise DimensionMismatchError(f"cannot enumerate corners of {type(self).__name__}")


@dataclass(frozen=True, eq=False)
class Box(Region):
    """Hyperrectangle [lo, hi] in R^k, lo <= hi; also the embedding state."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _frozen_vector(self.lo, "lo")
        hi = _frozen_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise DimensionMismatchError(
                f"endpoint lengths differ: {lo.shape[0]} vs {hi.shape[0]}"
            )
        if not np.all(lo <= hi):
            raise OrderError(f"box endpoints are not ordered: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    def margins(self, pts):
        """Signed gap to the nearest face, measured along the coordinates."""
        pts = self._points(pts)
        out = np.full(len(pts), np.inf)
        for k in range(self.dim):  # by column: no (N, dim) temporaries
            np.minimum(out, pts[:, k] - self.lo[k], out=out)
            np.minimum(out, self.hi[k] - pts[:, k], out=out)
        return out

    def bounding_box(self):
        return self

    def corners(self):
        """All 2^k corner points, lexicographic in (lo, hi) choices."""
        if self.dim > _VERTEX_DIM_LIMIT:
            raise SizeLimitError(f"refusing to enumerate 2^{self.dim} corners")
        pairs = list(zip(self.lo, self.hi))
        return [np.array(c) for c in itertools.product(*pairs)]

    def to_jsonable(self):
        return {"lo": [float(v) for v in self.lo], "hi": [float(v) for v in self.hi]}


@dataclass(frozen=True, eq=False)
class Parallelotope(Region):
    """Linear image under ``shape`` of a coordinate box.

    Membership is exact: x lies in the set iff shape^-1 x lies in ``coords``.
    """

    shape: np.ndarray
    coords: Box
    shape_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inv = invert_shape(self.shape)
        mat = np.array(self.shape, dtype=float)
        if mat.shape[0] != self.coords.dim:
            raise DimensionMismatchError(
                f"shape is {mat.shape[0]}-dimensional, coords are {self.coords.dim}-dimensional"
            )
        mat.flags.writeable = False
        inv.flags.writeable = False
        object.__setattr__(self, "shape", mat)
        object.__setattr__(self, "shape_inv", inv)

    @property
    def dim(self):
        return self.coords.dim

    def margins(self, pts):
        """Margins of the transformed points within the coordinate box."""
        return self.coords.margins(_product(self._points(pts), self.shape_inv.T))

    def corners(self):
        return ptope_vertices(self)

    def bounding_box(self):
        verts = np.array(ptope_vertices(self))
        return Box(verts.min(axis=0), verts.max(axis=0))

    def to_jsonable(self):
        return {"shape": [[float(v) for v in row] for row in self.shape],
                **self.coords.to_jsonable()}


@dataclass(frozen=True, eq=False)
class _MemberSet(Region):
    """Non-empty tuple of member regions of one dimension."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise DimensionMismatchError(
                f"{type(self).__name__} needs at least one member"
            )
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"members have mixed dimensions: {dims}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self):
        return self.members[0].dim


@dataclass(frozen=True, eq=False)
class UnionInitialSet(_MemberSet):
    """Exact union of parallelotopes (no hull is taken)."""

    def margins(self, pts):
        """Margin of the best member: positive iff inside some member."""
        return functools.reduce(np.maximum, (m.margins(pts) for m in self.members))

    def corners(self):
        """The members' corners, in member order."""
        return [c for m in self.members for c in m.corners()]

    def bounding_box(self):
        boxes = [m.bounding_box() for m in self.members]
        return Box(np.min([b.lo for b in boxes], axis=0),
                   np.max([b.hi for b in boxes], axis=0))

    def to_jsonable(self):
        return {"members": [m.to_jsonable() for m in self.members]}


@dataclass(frozen=True, eq=False)
class RegionIntersection(_MemberSet):
    """Points inside every member region."""

    def margins(self, pts):
        """Margin of the worst member: positive iff inside all members."""
        return functools.reduce(np.minimum, (m.margins(pts) for m in self.members))


def leq(a, b):
    """Componentwise vector order: a_i <= b_i for all i."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"lengths differ: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b))


def se_leq(a: Box, b: Box):
    """Southeast order on embedding states [lo, hi]: box inclusion b in a."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    return leq(a.lo, b.lo) and leq(b.hi, a.hi)


def ptope_vertices(p: Parallelotope):
    """Images under ``shape`` of the corners of the coordinate box.

    For 2-D parallelotopes the four vertices come back in counterclockwise
    order; higher dimensions use corner order. Dimensions above 20 are
    rejected to avoid enumerating 2^n points.
    """
    if p.dim > _VERTEX_DIM_LIMIT:
        raise SizeLimitError(f"refusing to enumerate 2^{p.dim} vertices")
    if p.dim == 2:
        lo, hi = p.coords.lo, p.coords.hi
        corners = [
            np.array([lo[0], lo[1]]),
            np.array([hi[0], lo[1]]),
            np.array([hi[0], hi[1]]),
            np.array([lo[0], hi[1]]),
        ]
        verts = [p.shape @ c for c in corners]
        if np.linalg.det(p.shape) < 0:
            verts.reverse()
        return verts
    return [p.shape @ c for c in p.coords.corners()]


def bounding_coords(vertices, shape):
    """Smallest coordinate box containing shape^-1 v for every vertex v.

    The parallelotope built from ``shape`` and the returned box contains the
    convex hull of the vertices.
    """
    if len(vertices) == 0:
        raise DimensionMismatchError("vertex list is empty")
    inv = invert_shape(shape)
    coords = np.array([inv @ np.asarray(v, dtype=float) for v in vertices])
    return Box(coords.min(axis=0), coords.max(axis=0))


def ptope_polygon(p: Parallelotope):
    """2-D parallelotope as a canonical Polygon2D."""
    if p.dim != 2:
        raise DimensionMismatchError("polygon conversion requires dimension 2")
    return Polygon2D(np.array(ptope_vertices(p)))


def _finite(pts):
    """``pts``; a NaN or infinite coordinate raises GeometryError."""
    if not np.all(np.isfinite(pts)):
        raise GeometryError("polygon has non-finite vertices")
    return pts


def _canonical_vertices(vertices):
    # tested before deduplication, which would pass over a NaN as a repeat
    pts = _finite(np.array(vertices, dtype=float).reshape(-1, 2))
    keep = [pts[0]]
    for q in pts[1:]:
        if np.max(np.abs(q - keep[-1])) > DEDUP_TOL:
            keep.append(q)
    if len(keep) > 1 and np.max(np.abs(keep[0] - keep[-1])) <= DEDUP_TOL:
        keep.pop()
    pts = np.array(keep)
    if len(pts) >= 3:
        if _signed_area(pts) < 0:
            pts = pts[::-1]
        start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
        pts = np.roll(pts, -start, axis=0)
    return pts


def _signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _check_convex(pts):
    k = len(pts)
    for i in range(k):
        a, b, c = pts[i], pts[(i + 1) % k], pts[(i + 2) % k]
        e1 = b - a
        e2 = c - b
        cross = e1[0] * e2[1] - e1[1] * e2[0]
        scale = max(1.0, float(np.linalg.norm(e1) * np.linalg.norm(e2)))
        if cross < -1e-9 * scale:
            raise GeometryError(f"polygon is not convex at vertex {i}")


@dataclass(frozen=True, eq=False)
class Polygon2D(Region):
    """Convex polygon, counterclockwise, lexicographically smallest vertex first."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = _canonical_vertices(self.vertices)
        if len(pts) >= 3:
            _check_convex(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "vertices", pts)

    def __len__(self):
        return len(self.vertices)

    @property
    def dim(self):
        return 2

    def area(self):
        if len(self.vertices) < 3:
            return 0.0
        return abs(_signed_area(self.vertices))

    def corners(self):
        return list(self.vertices)

    def bounding_box(self):
        return Box(self.vertices.min(axis=0), self.vertices.max(axis=0))

    def margins(self, pts):
        """Signed distance to the boundary: positive inside, negative outside.

        With one or two vertices this is minus the distance to the point or
        segment.
        """
        pts = self._points(pts)
        verts = self.vertices
        if len(verts) < 3:
            a, e = verts[0], verts[-1] - verts[0]
            t = np.clip(_product(pts - a, e) / (float(e @ e) or 1.0), 0.0, 1.0)
            gap = pts - a - t[:, None] * e
            return -np.hypot(gap[:, 0], gap[:, 1])
        best = np.full(len(pts), np.inf)
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            e = b - a
            # distance to the edge line, positive on the interior (left) side
            d = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
            best = np.minimum(best, d / np.hypot(e[0], e[1]))
        return best

    def to_jsonable(self):
        return [[float(v[0]), float(v[1])] for v in self.vertices]


def convex_hull_2d(points):
    """Convex hull of 2-D points as a canonical Polygon2D (monotone chain)."""
    # tested before the chain, which may drop a NaN point as a turn
    pts = _finite(sorted({(float(p[0]), float(p[1])) for p in points}))
    if len(pts) == 1:
        return Polygon2D(np.array([pts[0]]))

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return Polygon2D(np.array(lower[:-1] + upper[:-1]))


def _clip_against(points, a, b):
    """Keep the part of a CCW vertex loop left of the directed edge a -> b."""
    e = b - a
    eps = 1e-12 * max(1.0, float(np.linalg.norm(e)))
    out = []
    k = len(points)
    for i in range(k):
        p, q = points[i], points[(i + 1) % k]
        dp = e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])
        dq = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
        pin, qin = dp >= -eps, dq >= -eps
        if pin:
            out.append(p)
        if pin != qin:
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return out


def clip_intersection_2d(polys):
    """Intersection of convex polygons by successive half-plane clipping.

    Returns a Polygon2D, or None when the intersection has (numerically)
    zero area.
    """
    if len(polys) == 0:
        raise DimensionMismatchError("no polygons to intersect")
    current = [np.array(v, dtype=float) for v in polys[0].vertices]
    for poly in polys[1:]:
        pts = poly.vertices
        if len(pts) < 3:
            return None
        for i in range(len(pts)):
            current = _clip_against(current, pts[i], pts[(i + 1) % len(pts)])
            if len(current) < 3:
                return None
    if len(current) < 3:
        return None
    result = Polygon2D(np.array(current))
    if result.area() <= MIN_CLIP_AREA:
        return None
    return result
