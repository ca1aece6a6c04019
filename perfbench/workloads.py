"""The three workloads: seeded inputs, one operation per case, and output gates.

A workload is a fixed list of cases; one round runs every case once, in order,
so each round does the same work whatever the seed.  The seed only moves,
turns and scales the generated bodies and point sets.  The library sees only
those inputs, never the seed.

Every case has a gate.  A gate returns the failures it found, each a dict with
the gate's name and the numbers that decided it.  Expected values are closed
forms computed here, not by the library: r for balls, a^2/b for ellipses,
a^2/c for the 3-D ellipsoid, R for lenses and a^2/b + r for an ellipse plus a
ball.  Tolerances follow tests/test_acceptance.py.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

import strconvex as sc

REL_TOL = 0.02          # 1/(8C) and the minimal radius against the closed form
BALL_DELTA_TOL = 1e-3   # ball modulus against r - sqrt(r^2 - eps^2/4)
HULL_TOL = 1e-9         # relative slack of the hull gates

# Known wrong answers of the program, kept in the inputs on purpose: they count
# as failed operations (fail_fraction) but do not make the run incorrect.  Any
# other failure does, a different wrong answer at the same gate included.
# (workload, case, gate) -> (why, test the failure must pass to be this defect).
KNOWN_THREE_TWENTY = 3.20   # what the 3-D search returns for semi-axes 2, 1.5, 1


def _not_uniformly_convex(failure):
    return failure["exception"] == "NotUniformlyConvexError"


KNOWN_DEFECTS = {
    **{("radius_mixed", f"ellipse_{aspect}to1", "min_radius"):
       ("probe at eps = diam/50 on 512 directions finds no modulus (ROADMAP A)",
        _not_uniformly_convex) for aspect in (3, 4, 6)},
    ("radius_mixed", "ellipsoid_3d", "min_radius.closed_form"):
        ("3-D search returns 3.20 where a^2/c = 4 (ROADMAP A)",
         lambda f: abs(f["got"] - KNOWN_THREE_TWENTY) <= 0.01),
    ("radius_mixed", "ellipsoid_3d", "check_0.9.witness"):
        ("3-D pair sampling finds no witness at 0.9 a^2/c (same cause as 3.20)",
         lambda f: f["violation"] is None),
    ("radius_mixed", "ellipsoid_3d_predict", "predict.fit"):
        ("3-D error bound 0.0019 exceeds delta at small eps, fit refuses (ROADMAP A)",
         _not_uniformly_convex),
}


def known_defect(workload, case, failure):
    """Why ``failure`` is a known wrong answer of the program, or None."""
    why, matches = KNOWN_DEFECTS.get((workload, case, failure["gate"]), (None, None))
    return why if why is not None and matches(failure) else None


class Case:
    """One operation: ``run()`` calls the library, ``check(out)`` gates its output."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    """The cases of one round, the case used as the set-up warm-up, and for
    cli_cold the runner that starts the child processes."""

    def __init__(self, cases, warmup, runner=None):
        self.cases = cases
        self.warmup = next(c for c in cases if c.name == warmup)
        self.runner = runner


def attempt(fn, *args, **kwargs):
    """Call fn and return its value, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the gate decides what is expected
        return exc


class StageFailed(Exception):
    """The exception ``error`` raised by stage ``stage`` of a chained operation."""

    def __init__(self, stage, error):
        super().__init__(f"{stage}: {error}")
        self.stage = stage
        self.error = error


def _error(gate, exc):
    return {"gate": gate, "exception": type(exc).__name__, "error": str(exc)[:200]}


def _rel_gate(gate, got, want, tol=REL_TOL):
    rel = abs(got - want) / want
    return [] if rel <= tol else [{"gate": gate, "got": got, "want": want,
                                   "rel_err": rel, "tol": tol}]


def _raises(gate, out, error):
    if isinstance(out, error):
        return []
    got = type(out).__name__ if isinstance(out, Exception) else repr(out)[:120]
    return [{"gate": gate, "want": error.__name__, "got": got}]


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# -- modulus_planar -------------------------------------------------------------

MODULUS_RESOLUTION = 2048
MODULUS_EPS = 8


def _planar_bodies(rng):
    """(name, body, closed-form radius or None for an expected rejection)."""
    def center():
        return rng.uniform(-1.0, 1.0, 2)

    r = rng.uniform(0.8, 1.5)
    a2 = rng.uniform(1.5, 2.5)
    a4 = rng.uniform(1.5, 2.5)
    ae, rb = rng.uniform(1.5, 2.5), rng.uniform(0.3, 0.6)
    R_lens = rng.uniform(0.8, 1.2)
    chord = rng.uniform(0.8, 1.4) * R_lens
    t = rng.uniform(0.0, math.pi)
    p = center()
    q = p + chord * np.array([math.cos(t), math.sin(t)])
    side = rng.uniform(0.8, 1.5)
    square = (side * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)) @ _rotation(
        rng.uniform(0.0, math.pi)).T + center()
    return [
        ("ball", sc.Ball(center(), r), r),
        ("ellipse_2to1", sc.Ellipsoid(center(), [a2, a2 / 2], _rotation(rng.uniform(0, math.pi))),
         2.0 * a2),
        ("ellipse_4to1", sc.Ellipsoid(center(), [a4, a4 / 4], _rotation(rng.uniform(0, math.pi))),
         4.0 * a4),
        ("ellipse_plus_ball", sc.MinkowskiSum([
            sc.Ellipsoid(center(), [ae, ae / 2], _rotation(rng.uniform(0, math.pi))),
            sc.Ball(center(), rb)]), 2.0 * ae + rb),
        ("lens", sc.lens(p, q, R_lens), R_lens),
        ("square", sc.PointHull(square), None),
    ]


def _modulus_case(name, body, radius, resolution, n_eps):
    def run():
        stage = "curve"
        try:
            half = 0.5 * body.diameter()
            curve = sc.modulus_curve(body, np.linspace(0.1, 0.6, n_eps) * half, resolution)
            stage = "fit"
            fit = sc.fit_second_order(curve)
            stage = "fixed_point"
            seq = sc.radius_fixed_point(sc.zero_step_radius(fit.C), fit.C,
                                        tol=1e-9 / (8.0 * fit.C))
        except Exception as exc:  # noqa: BLE001 - the gate decides what is expected
            raise StageFailed(stage, exc) from exc
        return curve, fit, seq

    def check(out):
        if radius is None:
            error = out.error if isinstance(out, StageFailed) else out
            return _raises("rejection", error, sc.NotUniformlyConvexError)
        if isinstance(out, StageFailed):
            return [_error(f"predict.{out.stage}", out.error)]
        if isinstance(out, Exception):
            return [_error("predict", out)]
        curve, fit, seq = out
        fails = _rel_gate("predict.1/(8C)", 1.0 / (8.0 * fit.C), radius)
        if not seq.converged or abs(seq.values[-1] - seq.limit) > 1e-9 * seq.limit:
            fails.append({"gate": "fixed_point.converged", "last": seq.values[-1],
                          "limit": seq.limit, "iterations": len(seq.values) - 1})
        if name == "ball":
            err = max(abs(s.delta - (radius - math.sqrt(radius**2 - 0.25 * s.eps**2)))
                      for s in curve.samples)
            if err > BALL_DELTA_TOL:
                fails.append({"gate": "ball_delta", "max_abs_err": err, "tol": BALL_DELTA_TOL})
        return fails

    return Case(name, run, check)


def modulus_planar(seed, **_):
    rng = np.random.default_rng(seed)
    cases = [_modulus_case(n, b, r, MODULUS_RESOLUTION, MODULUS_EPS)
             for n, b, r in _planar_bodies(rng)]
    return Workload(cases, "ball")


# -- radius_mixed ---------------------------------------------------------------

PREDICT_RESOLUTION = 256


def _radius_case(name, body, radius):
    def run():
        out = {"min_radius": attempt(sc.min_strong_radius, body)}
        if radius is not None:
            out["check_1.0"] = attempt(sc.check_strong_convexity, body, radius)
            out["check_0.9"] = attempt(sc.check_strong_convexity, body, 0.9 * radius)
        return out

    def check(out):
        got = out["min_radius"]
        if radius is None:
            return _raises("rejection", got, sc.NotUniformlyConvexError)
        if isinstance(got, Exception):
            fails = [_error("min_radius", got)]
        else:
            fails = _rel_gate("min_radius.closed_form", got[0], radius)
        for key, convex in (("check_1.0", True), ("check_0.9", False)):
            v = out[key]
            if isinstance(v, Exception):
                fails.append(_error(key, v))
            elif v.is_convex != convex:
                gate = f"{key}.convex" if convex else f"{key}.witness"
                fails.append({"gate": gate, "R": v.R, "pairs": v.samples_tested,
                              "violation": None if v.witness is None else v.witness[2]})
        return fails

    return Case(name, run, check)


def radius_mixed(seed, **_):
    rng = np.random.default_rng(seed)
    planar = _planar_bodies(rng)
    by_name = {n: (b, r) for n, b, r in planar}
    cases = [_radius_case(n, *by_name[n]) for n in ("ball", "ellipse_2to1")]
    for aspect in (3, 4, 6):
        a = rng.uniform(1.5, 2.5)
        body = sc.Ellipsoid(rng.uniform(-1, 1, 2), [a, a / aspect],
                            _rotation(rng.uniform(0, math.pi)))
        cases.append(_radius_case(f"ellipse_{aspect}to1", body, aspect * a))
    cases += [_radius_case(n, *by_name[n]) for n in ("ellipse_plus_ball", "lens")]
    seg = rng.uniform(0.5, 1.0) * np.array([[-1.0, 0.0], [1.0, 0.0]]) @ _rotation(
        rng.uniform(0, math.pi)).T
    cases.append(_radius_case("ball_plus_segment", sc.MinkowskiSum(
        [sc.Ball(rng.uniform(-1, 1, 2), rng.uniform(0.8, 1.2)), sc.PointHull(seg)]), None))
    cases.append(_radius_case("square", *by_name["square"]))
    r3 = rng.uniform(0.8, 1.5)
    cases.append(_radius_case("ball_3d", sc.Ball(rng.uniform(-1, 1, 3), r3), r3))
    # axes fixed: the known 3.20 answer is for exactly this shape
    ellipsoid = sc.Ellipsoid(rng.uniform(-1, 1, 3), [2.0, 1.5, 1.0])
    cases.append(_radius_case("ellipsoid_3d", ellipsoid, 4.0))
    cases.append(_modulus_case("ellipsoid_3d_predict", ellipsoid, 4.0, PREDICT_RESOLUTION, 4))
    return Workload(cases, "ball_3d")


# -- hull inputs (cli_cold) -------------------------------------------------


def _point_set(rng, kind, n):
    """Points, the center and the radius of their smallest enclosing circle.

    The shape and order of each (kind, n) set are fixed and the seed moves,
    turns and scales it.  The hull work depends on shape and order only, so
    every seed asks for the same work.  An antipodal pair on the enclosing
    circle makes that circle known in closed form.
    """
    base = np.random.default_rng([("square", "disk", "circle").index(kind), n])
    if kind == "square":
        pts = base.uniform(-1.0, 1.0, (n, 2))
        pts[:2] = [[-1.0, -1.0], [1.0, 1.0]]
        r0 = math.sqrt(2.0)
    else:
        t = base.uniform(0.0, 2.0 * math.pi, n)
        rad = np.sqrt(base.uniform(0.0, 1.0, n)) if kind == "disk" else base.uniform(0.98, 1.0, n)
        pts = np.stack([rad * np.cos(t), rad * np.sin(t)], axis=1)
        pts[:2] = [[1.0, 0.0], [-1.0, 0.0]]
        r0 = 1.0
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-3.0, 3.0, 2)
    pts = scale * pts @ _rotation(rng.uniform(0.0, 2.0 * math.pi)).T + shift
    return pts, shift, scale * r0


def hull_gates(pieces, points, R, seb_center):
    """Gates on a hull given as one (center, radius) per arc, None per segment.

    Every piece is an arc of radius R and every input point lies in every arc's
    disk: the hull is the intersection of those disks.
    """
    fails = []
    scale = R + float(np.linalg.norm(seb_center))
    bad = [p for p in pieces if p is None or abs(p[1] - R) > HULL_TOL * R]
    if bad or not pieces:
        fails.append({"gate": "hull.arcs_radius", "pieces": len(pieces),
                      "off_radius": len(bad), "R": R})
        return fails
    centers = np.array([p[0] for p in pieces])
    dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=-1)
    if dist.max() > R + HULL_TOL * scale:
        fails.append({"gate": "hull.contains_points", "max_dist": float(dist.max()), "R": R})
    return fails


# -- cli_cold -------------------------------------------------------------------

CLI_TIMEOUT_S = 150
SPANS_MARK = "PERFBENCH_SPANS "


class CliRunner:
    """Runs one CLI command per child process; traced runs go through cli_child.py."""

    def __init__(self, root, tmp):
        self.root = root
        self.tmp = tmp
        self.traced = False
        self.aggregates = []   # span aggregates sent back by traced children
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def path(self, name):
        return os.path.join(self.tmp, name)

    def __call__(self, argv):
        if self.traced:
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py")]
        else:
            cmd = [sys.executable, "-m", "strconvex"]
        proc = subprocess.run(cmd + argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        stderr = []
        for line in proc.stderr.splitlines():
            if line.startswith(SPANS_MARK):
                self.aggregates.append(json.loads(line[len(SPANS_MARK):]))
            else:
                stderr.append(line)
        return proc.returncode, proc.stdout, "\n".join(stderr)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_body(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _cli_case(name, runner, argv, outputs, gate):
    """One CLI run; its output files are removed first so a gate never reads
    the file of an earlier round."""
    def run():
        for path in outputs:
            if os.path.exists(path):
                os.unlink(path)
        return runner(argv)

    def check(out):
        if isinstance(out, Exception):
            return [_error("run", out)]
        code, _, stderr = out
        if code != 0:
            return [{"gate": "exit_code", "want": 0, "got": code, "stderr": stderr[-200:]}]
        try:
            return gate()
        except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
            return [_error("output.parse", exc)]

    return Case(name, run, check)


def cli_cold(seed, root=None, tmp=None):
    rng = np.random.default_rng(seed)
    runner = CliRunner(root, tmp)
    p = runner.path

    a = rng.uniform(1.5, 2.5)
    theta = rng.uniform(0, math.pi)
    _write_body(p("ellipse.json"), {"type": "ellipsoid", "center": rng.uniform(-1, 1, 2).tolist(),
                                    "semi_axes": [a, a / 2],
                                    "rotation": _rotation(theta).tolist()})
    r2 = rng.uniform(0.8, 1.5)
    _write_body(p("ball2.json"), {"type": "ball", "center": rng.uniform(-1, 1, 2).tolist(),
                                  "radius": r2})
    r3 = rng.uniform(0.8, 1.5)
    _write_body(p("ball3.json"), {"type": "ball", "center": rng.uniform(-1, 1, 3).tolist(),
                                  "radius": r3})
    pts, center, r_seb = _point_set(rng, "disk", 200)
    _write_body(p("points.json"), {"type": "hull", "points": pts.tolist()})
    R_hull = 2.0 * r_seb

    def modulus_gate():
        with open(p("modulus.csv"), encoding="utf-8") as fh:
            rows = [ln for ln in fh.read().splitlines()[2:] if ln]
        fails = [] if len(rows) == 16 else [{"gate": "csv.rows", "want": 16, "got": len(rows)}]
        return fails + _rel_gate("fit.1/(8C)", 1.0 / (8.0 * _read_json(p("modulus.fit.json"))["C"]),
                                 2.0 * a)

    def hull_gate():
        data = _read_json(p("hull.json"))
        pieces = [(np.array(q["center"], float), float(q["radius"])) if q["kind"] == "arc"
                  else None for q in data["pieces"]]
        fails = hull_gates(pieces, pts, R_hull, center)
        if not pieces or None in pieces:
            return fails
        # B_R(seb center) holds every R-ball hull of the points, so every arc end does
        ends = np.array([c + rad * np.array([math.cos(q[k]), math.sin(q[k])])
                         for (c, rad), q in zip(pieces, data["pieces"])
                         for k in ("from", "to")])
        excess = float(np.max(np.linalg.norm(ends - center, axis=1)) - R_hull)
        if excess > 1e-8 * R_hull:
            fails.append({"gate": "hull.inside_seb_ball", "excess": excess})
        paths = [e for e in ET.parse(p("hull.svg")).getroot().iter() if e.tag.endswith("path")]
        if len(paths) < 2:
            fails.append({"gate": "svg.paths", "want": ">= 2 (hull and kernel)", "got": len(paths)})
        return fails

    def verify_gate():
        data = _read_json(p("verify.json"))
        fails = [] if data["verified"] is True else [{"gate": "verified", "got": data["verified"]}]
        return (fails + _rel_gate("predicted_radius", data["predicted_radius"], 2.0 * a)
                + _rel_gate("measured_radius", data["measured_radius"], 2.0 * a))

    cases = [
        _cli_case("modulus", runner,
                  ["modulus", "--body", p("ellipse.json"), "--out", p("modulus.csv")],
                  [p("modulus.csv"), p("modulus.fit.json")], modulus_gate),
        _cli_case("radius_minimize", runner,
                  ["radius", "--minimize", "--body", p("ellipse.json"), "--out", p("rmin.json")],
                  [p("rmin.json")],
                  lambda: _rel_gate("R_min", _read_json(p("rmin.json"))["R_min"], 2.0 * a)),
        _cli_case("radius_minimize_3d", runner,
                  ["radius", "--minimize", "--body", p("ball3.json"), "--out", p("rmin3.json")],
                  [p("rmin3.json")],
                  lambda: _rel_gate("R_min", _read_json(p("rmin3.json"))["R_min"], r3)),
        _cli_case("radius_predict", runner,
                  ["radius", "--body", p("ball2.json"), "--out", p("predict.json")],
                  [p("predict.json")],
                  lambda: _rel_gate("sharp_radius",
                                    _read_json(p("predict.json"))["sharp_radius"], r2)),
        _cli_case("hull", runner,
                  ["hull", "--body", p("points.json"), "--radius", repr(R_hull),
                   "--out", p("hull.json"), "--svg", p("hull.svg"), "--kernel-overlay"],
                  [p("hull.json"), p("hull.svg")], hull_gate),
        _cli_case("verify_theorem", runner,
                  ["verify-theorem", "--body", p("ellipse.json"), "--out", p("verify.json")],
                  [p("verify.json")], verify_gate),
    ]
    return Workload(cases, "radius_minimize", runner)


WORKLOADS = {
    "modulus_planar": modulus_planar,
    "radius_mixed": radius_mixed,
    "cli_cold": cli_cold,
}
