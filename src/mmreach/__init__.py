"""Reachable-set over-approximation for disturbed nonlinear ODEs.

Decomposition functions split a vector field into increasing and decreasing
parts; integrating the induced embedding system bounds all disturbed
trajectories by a box. Linear state transformations extend the bounds to
parallelotopes, intersections over several transforms, and unions over
polytopic initial sets. :mod:`mmreach.oracle` provides the Monte-Carlo ground
truth used to audit every over-approximation.
"""

from .decomp import (
    CheckReport,
    Decomposition,
    check_decomposition,
    closed_form_decomposition,
    combine,
    jacobian_sign_decomposition,
    make_decomposition,
    monotone_decomposition,
    parse_closed_form,
    tight_decomposition,
)
from .embed import (
    ReachSpec,
    Trajectory,
    embedding,
    integrate,
    reach_box,
)
from .exprlang import ExprAst, evaluate, parse, partial, to_source
from .geometry import (
    Box,
    Parallelotope,
    Polygon2D,
    RegionIntersection,
    UnionInitialSet,
    bounding_coords,
    clip_intersection_2d,
    convex_hull_2d,
    leq,
    ptope_polygon,
    ptope_vertices,
    se_leq,
)
from .multiorder import (
    ReachOutcome,
    default_transform_family,
    reach_intersection,
    reach_parallelotope,
    reach_plan,
)
from .oracle import (
    ContainmentReport,
    SampleConfig,
    SampleResult,
    audit_containment,
    backward_witnesses,
    intersection_volume_mc,
    occupancy_area,
    sample_endpoints,
    simulate,
)
from .sysdef import SystemDef, preset_system, reverse_time, transform

__version__ = "0.1.0"
