"""JSON body descriptions and canonical numeric serialization.

Body schema: {"type": "ball" | "ellipsoid" | "hull" | "minkowski" | "arcpolygon", ...}.
Arc polygons carry a "pieces" list of arcs ({"kind": "arc", "center", "radius",
"from", "to"}) and segments ({"kind": "segment", "from", "to"}).
"""
from __future__ import annotations

import json

import numpy as np

from .arcpoly import Arc, ArcPolygon, Seg
from .bodies import Ball, ConvexBody, Ellipsoid, MinkowskiSum, PointHull


class Exact(float):
    """A float that dumps_canonical writes in full, so that it reads back unchanged."""


def _round12(x):
    """Round floats other than Exact ones to 12 significant digits, recursively."""
    if isinstance(x, Exact):
        return float(x)
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return _round12(x.tolist())
    return x


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: 12 significant digits but for Exact values, stable key order."""
    return json.dumps(_round12(obj), indent=2, sort_keys=True) + "\n"


def body_to_dict(body: ConvexBody) -> dict:
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, Ellipsoid):
        return {
            "type": "ellipsoid",
            "center": body.center.tolist(),
            "semi_axes": body.semi_axes.tolist(),
            "rotation": body.rotation.tolist(),
        }
    if isinstance(body, PointHull):
        return {"type": "hull", "points": body.points.tolist()}
    if isinstance(body, MinkowskiSum):
        return {"type": "minkowski", "parts": [body_to_dict(p) for p in body.parts]}
    if isinstance(body, ArcPolygon):
        return arcpolygon_to_dict(body)
    raise ValueError(f"cannot serialize body of type {type(body).__name__}")


def arcpolygon_to_dict(ap: ArcPolygon) -> dict:
    if ap.is_singleton:
        return {"type": "arcpolygon", "point": ap.singleton_point.tolist(), "pieces": []}
    pieces = []
    for p in ap.pieces:
        if isinstance(p, Arc):
            pieces.append({
                "kind": "arc",
                "center": list(p.center),
                "radius": p.radius,
                "from": p.start_angle,
                "to": p.end_angle,
            })
        else:
            pieces.append({
                "kind": "segment",
                "from": list(p.start),
                "to": list(p.end),
            })
    return {"type": "arcpolygon", "pieces": pieces}


def body_from_dict(data: dict) -> ConvexBody:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("body description must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "ball":
            return Ball(data["center"], data["radius"])
        if kind == "ellipsoid":
            return Ellipsoid(data["center"], data["semi_axes"], data.get("rotation"))
        if kind == "hull":
            return PointHull(data["points"])
        if kind == "minkowski":
            return MinkowskiSum([body_from_dict(p) for p in data["parts"]])
        if kind == "arcpolygon":
            return arcpolygon_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} description: {exc}") from exc
    raise ValueError(f"unknown body type {kind!r}")


def arcpolygon_from_dict(data: dict) -> ArcPolygon:
    if data.get("point") is not None:
        return ArcPolygon.singleton(data["point"])
    pieces = []
    for p in data["pieces"]:
        if p["kind"] == "arc":
            pieces.append(Arc(tuple(map(float, p["center"])), float(p["radius"]),
                              float(p["from"]), float(p["to"])))
        elif p["kind"] == "segment":
            pieces.append(Seg(tuple(map(float, p["from"])), tuple(map(float, p["to"]))))
        else:
            raise ValueError(f"unknown piece kind {p['kind']!r}")
    return ArcPolygon(pieces)


def load_body(path: str) -> ConvexBody:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return body_from_dict(data)
