"""Reach pipeline: boxes, parallelotopes, intersections and unions.

A decomposition for the transformed dynamics bounds reachable sets of the
original system by parallelotopes; several transformations intersect to a
tighter polytope, and a union of parallelotopes is bounded member by member.
``run_reach`` dispatches a validated configuration to one of these and
returns the one result record, ``ReachOutcome``. Every bound goes through
``embed.reach_box``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .embed import ReachSpec, reach_box
from .errors import DimensionMismatchError, EmptyIntersectionError, GeometryError
from .geometry import (
    MIN_CLIP_AREA,
    Box,
    Parallelotope,
    RegionIntersection,
    UnionInitialSet,
    bounding_coords,
    clip_intersection_2d,
    ptope_polygon,
)
from .sysdef import transform


@dataclass
class ReachOutcome:
    """Everything a pipeline run produced, ready for serialization."""

    kind: str  # box | parallelotope | intersection | union
    boxes: list = field(default_factory=list)
    parallelotopes: list = field(default_factory=list)
    intersection: object = None
    areas: list = field(default_factory=list)
    volume: float | None = None
    volume_ci: float | None = None

    def audit_region(self):
        if self.kind == "box":
            return self.boxes[0][1]
        if self.kind == "parallelotope":
            return self.parallelotopes[0]
        if self.kind == "intersection":
            return RegionIntersection(tuple(self.parallelotopes))
        return UnionInitialSet(tuple(self.parallelotopes))


def reach_parallelotope(system, x0: Parallelotope, spec: ReachSpec,
                        method="tight", **method_options):
    """Parallelotope over-approximation of the reachable set from ``x0``.

    Builds the dynamics transformed by ``x0.shape``, constructs the requested
    decomposition (tight by default), and integrates its embedding in
    transformed coordinates. ``spec.direction`` selects forward or backward
    reachability.
    """
    box = reach_box(transform(system, x0.shape), x0.coords, spec, method,
                    **method_options)
    return Parallelotope(x0.shape, box)


def reach_intersection(system, transforms, x0_vertices, spec: ReachSpec,
                       method="tight", **method_options):
    """Reach under every transform and intersect the results.

    The initial set is the polytope spanned by ``x0_vertices``; each
    transform gets the smallest parallelotope of its own shape containing
    those vertices. For planar systems the running intersection and its
    area curve are exact (half-plane clipping); higher dimensions report a
    Monte-Carlo volume of the intersection instead.
    """
    if len(transforms) == 0:
        raise DimensionMismatchError("no transforms given")
    vertices = [np.asarray(v, dtype=float) for v in x0_vertices]
    outcome = ReachOutcome(kind="intersection")
    running = None
    polys = []
    for k, shape in enumerate(transforms, start=1):
        x0 = Parallelotope(shape, bounding_coords(vertices, shape))
        ptope = reach_parallelotope(system, x0, spec, method, **method_options)
        outcome.parallelotopes.append(ptope)
        if system.n == 2:
            # a finite but huge bound overflows the clipping arithmetic
            try:
                with np.errstate(over="raise", invalid="raise"):
                    polys.append(ptope_polygon(ptope))
                    running = (polys[0] if running is None
                               else clip_intersection_2d([running, polys[-1]]))
            except FloatingPointError:
                raise GeometryError(
                    f"transform {k}: the member's bound is too wide to intersect"
                ) from None
            if running is None:
                # the clip cannot tell a flat member from disjoint members
                flat = [j for j, p in enumerate(polys, start=1)
                        if p.area() <= MIN_CLIP_AREA]
                if flat:
                    raise GeometryError(
                        f"transform {flat[0]}: the member's bound is a point or "
                        "a segment, which planar intersection does not support"
                    )
                raise EmptyIntersectionError(
                    "intersection of over-approximations is empty; every member "
                    "must contain the reachable set, so an upstream step is wrong"
                )
            outcome.areas.append(running.area())
    outcome.intersection = running
    if system.n != 2:
        outcome.volume, outcome.volume_ci = oracle.intersection_volume_mc(
            outcome.parallelotopes
        )
    return outcome


def run_reach(cfg):
    """Run the pipeline a validated ``ProblemConfig`` describes."""
    system, spec, init = cfg.system, cfg.spec, cfg.initial_set
    options = cfg.method_options
    if cfg.transforms is not None:
        vertices = init if isinstance(init, list) else init.corners()
        return reach_intersection(system, cfg.transforms, vertices, spec,
                                  cfg.method, **options)
    if isinstance(init, (Parallelotope, UnionInitialSet)):
        # reach commutes with unions: each member is bounded on its own
        union = isinstance(init, UnionInitialSet)
        ptopes = [reach_parallelotope(system, member, spec, cfg.method, **options)
                  for member in (init.members if union else (init,))]
        return ReachOutcome(kind="union" if union else "parallelotope",
                            parallelotopes=ptopes)
    if not isinstance(init, Box):
        # bare vertex polytope without transforms: bound it by its own hull box
        verts = np.array([np.asarray(v) for v in init])
        init = Box(verts.min(axis=0), verts.max(axis=0))
    box = reach_box(system, init, spec, cfg.method, **options)
    return ReachOutcome(kind="box", boxes=[(spec.horizon, box)])


def default_transform_family(count):
    """``count`` planar rotations at angles pi*j/(2*count), j = 0..count-1.

    Evenly covers the quarter turn of distinct box orientations; the first
    member is the identity.
    """
    if count < 1:
        raise DimensionMismatchError(f"count must be >= 1, got {count}")
    out = []
    for j in range(count):
        theta = np.pi * j / (2.0 * count)
        c, s = np.cos(theta), np.sin(theta)
        out.append(np.array([[c, -s], [s, c]]))
    return out
