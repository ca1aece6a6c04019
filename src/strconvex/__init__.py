"""Convex-geometry toolkit: supporting functions, moduli of convexity, ball
hulls and strong-convexity radii of convex bodies in Euclidean space."""

from .arcpoly import (
    Arc,
    ArcPolygon,
    Seg,
    disk_intersection,
    hausdorff_distance,
    lens,
    offset,
    r_hull,
)
from .bodies import (
    Ball,
    ConvexBody,
    Ellipsoid,
    MinkowskiSum,
    PointHull,
    angle_grid,
    as_direction,
    as_vector,
    boundary_distance,
    default_grid,
    sphere_grid,
    unit,
)
from .errors import (
    EmptyBodyError,
    EmptyInputError,
    GeometryError,
    NoEnclosingBallError,
    NotConvergedError,
    NotStronglyConvexError,
    NotUniformlyConvexError,
    OutOfDomainError,
    OutsideBodyError,
    PreconditionError,
    StrConvexError,
    TooFarApartError,
)
from .modulus import (
    ModulusCurve,
    ModulusSample,
    SecondOrderFit,
    ball_modulus,
    fit_second_order,
    modulus_curve,
)
from .radius_theory import (
    RadiusSequence,
    SharpnessVerdict,
    chord_radius,
    radius_fixed_point,
    radius_map,
    refine_radius,
    sharp_radius,
    sharpness_check,
    zero_step_radius,
)
from .seb import smallest_enclosing_circle
from .strongconv import (
    ComplementBody,
    ConvexityVerdict,
    GapFunction,
    check_strong_convexity,
    complement_body,
    lens_radius,
    min_strong_radius,
    supporting_ball_radius,
)

__version__ = "0.1.0"
