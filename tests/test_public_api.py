"""The package's public names, pinned: adding, removing or bringing back a name
is a deliberate change to this list."""
import inspect

import strconvex as sc

PUBLIC_NAMES = [
    "Arc", "ArcPolygon", "Ball", "ComplementBody", "ConvexBody", "ConvexityVerdict",
    "Ellipsoid", "EmptyBodyError", "EmptyInputError", "GapFunction", "GeometryError",
    "MinkowskiSum", "ModulusCurve", "ModulusSample", "NoEnclosingBallError",
    "NotConvergedError", "NotStronglyConvexError", "NotUniformlyConvexError",
    "OutOfDomainError", "OutsideBodyError", "PointHull", "PreconditionError",
    "RadiusSequence", "SecondOrderFit", "Seg", "SharpnessVerdict", "StrConvexError",
    "TooFarApartError", "angle_grid", "as_direction", "as_vector", "ball_modulus",
    "boundary_distance", "check_strong_convexity", "chord_radius", "complement_body",
    "default_grid", "disk_intersection", "fit_second_order", "hausdorff_distance", "lens",
    "lens_radius", "min_strong_radius", "modulus_curve", "offset", "r_hull",
    "radius_fixed_point", "radius_map", "refine_radius", "sharp_radius", "sharpness_check",
    "smallest_enclosing_circle", "sphere_grid", "supporting_ball_radius", "unit",
    "zero_step_radius",
]


def test_public_names_are_pinned():
    # submodules appear once imported, so they are not part of the list
    names = sorted(n for n, v in vars(sc).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC_NAMES
