"""Reachable-set over-approximation for disturbed nonlinear ODEs.

Decomposition functions split a vector field into increasing and decreasing
parts; integrating the induced embedding system bounds all disturbed
trajectories by a box. Linear state transformations extend the bounds to
parallelotopes, intersections over several transforms, and unions over
polytopic initial sets. :mod:`mmreach.oracle` provides the Monte-Carlo ground
truth used to audit every over-approximation.

``import mmreach`` loads no submodule: each public name, and each submodule
reached as an attribute (``mmreach.oracle``), is imported on first use, so a
program pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "decomp": (
        "CheckReport",
        "Decomposition",
        "check_decomposition",
        "closed_form_decomposition",
        "combine",
        "jacobian_sign_decomposition",
        "make_decomposition",
        "monotone_decomposition",
        "parse_closed_form",
        "tight_decomposition",
    ),
    "embed": (
        "ReachSpec",
        "SampleConfig",
        "Trajectory",
        "integrate",
        "reach_box",
    ),
    "exprlang": ("ExprAst", "evaluate", "parse", "partial", "to_source"),
    "geometry": (
        "Box",
        "Parallelotope",
        "Polygon2D",
        "RegionIntersection",
        "UnionInitialSet",
        "bounding_coords",
        "clip_intersection_2d",
        "convex_hull_2d",
        "leq",
        "ptope_polygon",
        "ptope_vertices",
        "se_leq",
    ),
    "multiorder": (
        "ReachOutcome",
        "default_transform_family",
        "reach_intersection",
        "reach_parallelotope",
        "reach_plan",
    ),
    "oracle": (
        "ContainmentReport",
        "SampleResult",
        "audit_containment",
        "backward_witnesses",
        "intersection_volume_mc",
        "occupancy_area",
        "sample_endpoints",
        "simulate",
    ),
    "sysdef": ("SystemDef", "preset_system", "reverse_time", "transform"),
}
# public name -> the submodule that defines it
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "errors"}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
