"""Reach pipeline: boxes, parallelotopes, intersections and unions.

A decomposition for the transformed dynamics bounds reachable sets of the
original system by parallelotopes; several transformations intersect to a
tighter polytope, and a union of parallelotopes is bounded member by member.
``reach_plan`` lists the members a run reaches; ``run_reach`` dispatches a
validated configuration to one of these and returns the one result record,
``ReachOutcome``. Every bound goes through ``embed.reach_box``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def reach_plan(initial, transforms):
    """The ``(where, member)`` pairs a run reaches, in run order; ``where``
    locates the member in the config. Under ``transforms`` each shape gets the
    smallest parallelotope of that shape containing the initial set (a list
    is a vertex set); otherwise the union's members or the parallelotope are
    reached, and a box, or a bare vertex set's bounding box, as a box."""
    if transforms is not None:
        vertices = initial if isinstance(initial, list) else initial.corners()
        return [("transforms", Parallelotope(shape, bounding_coords(vertices, shape)))
                for shape in transforms]
    if isinstance(initial, UnionInitialSet):
        return [(f"initial_set.members[{i}].shape", member)
                for i, member in enumerate(initial.members)]
    if isinstance(initial, Parallelotope):
        return [("initial_set.shape", initial)]
    if isinstance(initial, list):
        verts = np.array([np.asarray(v) for v in initial])
        initial = Box(verts.min(axis=0), verts.max(axis=0))
    return [("initial_set", initial)]


def reach_intersection(system, transforms, x0, spec: ReachSpec,
                       method="tight", **method_options):
    """Reach under every transform and intersect the results.

    The initial set ``x0`` is a region or a list of vertices (their convex
    hull); each transform gets the smallest parallelotope of its own shape
    containing it. For planar systems the running intersection and its
    area curve are exact (half-plane clipping); higher dimensions report a
    Monte-Carlo volume of the intersection instead.
    """
    if len(transforms) == 0:
        raise DimensionMismatchError("no transforms given")
    outcome = ReachOutcome(kind="intersection")
    running = None
    polys = []
    for k, (_, member) in enumerate(reach_plan(x0, transforms), start=1):
        ptope = reach_parallelotope(system, member, spec, method, **method_options)
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
        from . import oracle  # imported here so that a reach loads no oracle

        outcome.volume, outcome.volume_ci = oracle.intersection_volume_mc(
            outcome.parallelotopes
        )
    return outcome


def run_reach(cfg):
    """Run the pipeline a validated ``ProblemConfig`` describes."""
    system, spec, init = cfg.system, cfg.spec, cfg.initial_set
    options = cfg.method_options
    if cfg.transforms is not None:
        return reach_intersection(system, cfg.transforms, init, spec,
                                  cfg.method, **options)
    # reach commutes with unions: each member is bounded on its own
    members = [member for _, member in reach_plan(init, None)]
    if isinstance(members[0], Box):
        box = reach_box(system, members[0], spec, cfg.method, **options)
        return ReachOutcome(kind="box", boxes=[(spec.horizon, box)])
    ptopes = [reach_parallelotope(system, member, spec, cfg.method, **options)
              for member in members]
    kind = "union" if isinstance(init, UnionInitialSet) else "parallelotope"
    return ReachOutcome(kind=kind, parallelotopes=ptopes)


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
