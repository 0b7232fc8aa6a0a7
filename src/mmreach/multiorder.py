"""Parallelotope reachability under linear state transformations.

A decomposition for the transformed dynamics bounds reachable sets of the
original system by parallelotopes; several transformations intersect to a
tighter polytope, and polytopic initial sets split into parallelotope unions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .embed import ReachSpec, reach_box
from .errors import DimensionMismatchError, EmptyIntersectionError
from .geometry import (
    Parallelotope,
    Polygon2D,
    UnionInitialSet,
    bounding_coords,
    clip_intersection_2d,
    ptope_polygon,
)
from .sysdef import transform

__all__ = [
    "TransformPlan",
    "UnionInitialSet",
    "IntersectionResult",
    "reach_parallelotope",
    "reach_intersection",
    "reach_union",
    "default_transform_family",
]


@dataclass(frozen=True)
class TransformPlan:
    """Shape matrices to apply, all under one reach spec."""

    transforms: tuple
    spec: ReachSpec

    def __post_init__(self):
        transforms = tuple(np.array(t, dtype=float) for t in self.transforms)
        if not transforms:
            raise DimensionMismatchError("transform plan is empty")
        for t in transforms:
            t.flags.writeable = False
        object.__setattr__(self, "transforms", transforms)


def reach_parallelotope(system, shape, x0: Parallelotope, spec: ReachSpec,
                        method="tight", **method_options):
    """Parallelotope over-approximation of the reachable set from ``x0``.

    Builds the transformed dynamics for ``shape``, constructs the requested
    decomposition (tight by default), and integrates its embedding in
    transformed coordinates. ``spec.direction`` selects forward or backward
    reachability; ``x0.shape`` must equal ``shape``.
    """
    shape = np.asarray(shape, dtype=float)
    if not np.allclose(x0.shape, shape, rtol=0.0, atol=1e-12):
        raise DimensionMismatchError(
            "initial parallelotope shape differs from the requested transform"
        )
    box = reach_box(transform(system, shape), x0.coords, spec, method,
                    **method_options)
    return Parallelotope(shape, box)


@dataclass
class IntersectionResult:
    """Per-transform parallelotopes plus their running intersection."""

    parallelotopes: list
    intersection: Polygon2D | None
    areas: list
    volume: float | None = None
    volume_ci: float | None = None
    initial_sets: list = field(default_factory=list)


def reach_intersection(system, plan: TransformPlan, x0_vertices, method="tight",
                       volume_samples=10**6, seed=0, **method_options):
    """Reach under every transform of the plan and intersect the results.

    The initial set is the polytope spanned by ``x0_vertices``; each
    transform gets the smallest parallelotope of its own shape containing
    those vertices. For planar systems the running intersection and its
    area curve are exact (half-plane clipping); higher dimensions report a
    Monte-Carlo volume of the intersection instead.
    """
    vertices = [np.asarray(v, dtype=float) for v in x0_vertices]
    ptopes = []
    initial_sets = []
    areas = []
    running = None
    planar = system.n == 2
    for shape in plan.transforms:
        coords = bounding_coords(vertices, shape)
        x0 = Parallelotope(shape, coords)
        initial_sets.append(x0)
        ptope = reach_parallelotope(system, shape, x0, plan.spec, method,
                                    **method_options)
        ptopes.append(ptope)
        if planar:
            poly = ptope_polygon(ptope)
            running = poly if running is None else clip_intersection_2d([running, poly])
            if running is None:
                raise EmptyIntersectionError(
                    "intersection of over-approximations is empty; every member "
                    "must contain the reachable set, so an upstream step is wrong"
                )
            areas.append(running.area())
    result = IntersectionResult(
        parallelotopes=ptopes,
        intersection=running,
        areas=areas,
        initial_sets=initial_sets,
    )
    if not planar:
        result.volume, result.volume_ci = oracle.intersection_volume_mc(
            ptopes, volume_samples, seed
        )
    return result


def reach_union(system, union: UnionInitialSet, spec: ReachSpec,
                method="tight", **method_options):
    """Per-member parallelotope reach; the result list over-approximates the
    reachable set of the union (reach commutes with unions)."""
    return [
        reach_parallelotope(system, member.shape, member, spec, method,
                            **method_options)
        for member in union.members
    ]


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
