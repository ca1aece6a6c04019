"""Command-line front end.

Subcommands: modulus (curve scan + second-order fit), radius (check / minimize /
predict), hull (strongly convex hull of points, JSON + SVG), verify-theorem
(modulus fit vs measured minimal radius plus sharpness legs).

Exit codes: 0 success/verified, 1 verification mismatch, 2 input error,
3 convexity witness found, 4 hypothesis failure, 5 not converged.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import arcpoly, jsonio, svgio
from .bodies import ConvexBody
from .errors import (
    NoEnclosingBallError,
    NotConvergedError,
    NotStronglyConvexError,
    NotUniformlyConvexError,
    StrConvexError,
)
from .modulus import ModulusCurve, fit_second_order, modulus_curve
from .radius_theory import (
    radius_fixed_point,
    sharp_radius,
    sharpness_check,
    zero_step_radius,
)
from .strongconv import check_strong_convexity, min_strong_radius

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_WITNESS = 3
EXIT_HYPOTHESIS = 4
EXIT_NOT_CONVERGED = 5


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".strconvex-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        _atomic_write(path, jsonio.dumps_canonical(payload))


def _curve_csv(curve: ModulusCurve, seed: int) -> str:
    lines = [f"# seed={seed}", "eps,delta,error_bound"]
    for s in curve.samples:
        lines.append(f"{s.eps:.12g},{s.delta:.12g},{s.error_bound:.12g}")
    return "\n".join(lines) + "\n"


def _parse_eps(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        values = np.linspace(float(a), float(b), int(n))
    except ValueError as exc:
        raise ValueError(f"--eps expects A:B:N, got {spec!r}") from exc
    if len(values) == 0 or np.any(values <= 0.0) or np.any(np.diff(values) <= 0.0):
        raise ValueError("--eps grid must be positive and strictly increasing")
    return values


def _parse_window(spec: str | None):
    if spec is None:
        return None
    try:
        lo, hi = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"--window expects LO:HI, got {spec!r}") from exc
    return lo, hi


def scan_curve(body: ConvexBody, eps_values, resolution: int) -> ModulusCurve:
    """Modulus scan with one shared boundary model."""
    return modulus_curve(body, eps_values, resolution)


def _default_eps_grid(body: ConvexBody) -> np.ndarray:
    # chords below ~0.1 of the scale drown in grid noise at default resolution
    half = 0.5 * body.diameter()
    return np.linspace(0.1, 0.6, 16) * half


def _load_body(path: str) -> ConvexBody:
    try:
        return jsonio.load_body(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


class _InputError(Exception):
    pass


def cmd_modulus(args) -> int:
    body = _load_body(args.body)
    eps_values = _parse_eps(args.eps) if args.eps else _default_eps_grid(body)
    curve = scan_curve(body, eps_values, args.resolution)
    if args.out:
        _atomic_write(args.out, _curve_csv(curve, args.seed))
    fit_path = (os.path.splitext(args.out)[0] + ".fit.json") if args.out else None
    try:
        fit = fit_second_order(curve, window=_parse_window(args.window))
    except NotUniformlyConvexError as exc:
        print(f"not uniformly convex: {exc}", file=sys.stderr)
        _write_json(fit_path, {"seed": args.seed, "error": "NotUniformlyConvex",
                               "detail": str(exc)})
        return EXIT_HYPOTHESIS
    payload = {
        "seed": args.seed,
        "C": fit.C,
        "window": list(fit.window),
        "residual": fit.residual,
    }
    _write_json(fit_path, payload)
    print(f"C = {fit.C:.12g}  window = [{fit.window[0]:.12g}, {fit.window[1]:.12g}]"
          f"  residual = {fit.residual:.12g}")
    return EXIT_OK


def _verdict_payload(verdict, seed: int) -> dict:
    witness = None
    if verdict.witness is not None:
        p1, p2, violation = verdict.witness
        witness = {"p1": p1.tolist(), "p2": p2.tolist(), "violation": violation}
    return {
        "seed": seed,
        "R": verdict.R,
        "is_convex": verdict.is_convex,
        "witness": witness,
        "samples": verdict.samples_tested,
        "tol": verdict.tol,
    }


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise _InputError("--tol must be positive and finite")


def cmd_radius(args) -> int:
    _check_tol(args.tol)
    body = _load_body(args.body)
    if args.check is not None:
        verdict = check_strong_convexity(body, args.check, n_pairs=args.n_pairs,
                                         seed=args.seed)
        _write_json(args.out, _verdict_payload(verdict, args.seed))
        if verdict.is_convex:
            print(f"convex at R = {args.check:.12g} "
                  f"({verdict.samples_tested} pairs, tol {verdict.tol:.3g})")
            return EXIT_OK
        print(f"witness at R = {args.check:.12g}: violation "
              f"{verdict.witness[2]:.6g}")
        return EXIT_WITNESS
    if args.minimize:
        r_min, bracket = min_strong_radius(body, n_pairs=args.n_pairs, seed=args.seed)
        # the bracket ends are adjacent floats, so they are written in full
        _write_json(args.out, {"seed": args.seed, "R_min": jsonio.Exact(r_min),
                               "bracket": [jsonio.Exact(b) for b in bracket]})
        # the ends are adjacent floats: only repr tells them apart
        print(f"R_min = {r_min!r}  bracket = [{bracket[0]!r}, {bracket[1]!r}]")
        return EXIT_OK
    # predict-from-modulus: fit C, then run the radius chain at K = C (1 - margin)
    curve = scan_curve(body, _default_eps_grid(body), args.resolution)
    fit = fit_second_order(curve)
    K = fit.C * (1.0 - args.margin)
    r_zero = zero_step_radius(K)
    seq = radius_fixed_point(r_zero, K, tol=args.tol * sharp_radius(K))
    payload = {
        "seed": args.seed,
        "C": fit.C,
        "K": K,
        "zero_step_radius": r_zero,
        "iterates": list(seq.values),
        "limit": seq.limit,
        "sharp_radius": sharp_radius(fit.C),
    }
    _write_json(args.out, payload)
    if args.out:
        rows = [f"# seed={args.seed}", "n,R_n"]
        rows += [f"{n},{v:.12g}" for n, v in enumerate(seq.values)]
        _atomic_write(os.path.splitext(args.out)[0] + ".iterates.csv",
                      "\n".join(rows) + "\n")
    print(f"C = {fit.C:.12g}  1/(4K) = {r_zero:.12g}  1/(8K) = {seq.limit:.12g}  "
          f"1/(8C) = {sharp_radius(fit.C):.12g}")
    return EXIT_OK


def cmd_hull(args) -> int:
    body = _load_body(args.body)
    points = getattr(body, "points", None)
    if points is None or points.shape[1] != 2:
        raise _InputError("hull expects a planar body of type 'hull' (a points list)")
    hull = arcpoly.r_hull(points, args.radius)
    payload = jsonio.arcpolygon_to_dict(hull)
    payload["seed"] = args.seed
    payload["radius"] = args.radius
    _write_json(args.out, payload)
    if args.svg:
        shapes = [hull]
        if args.kernel_overlay:
            kernel = arcpoly.disk_intersection(points, args.radius)
            if kernel is not None and not kernel.is_singleton:
                shapes.append(kernel)
        _atomic_write(args.svg, svgio.render_svg(shapes, points=points))
    n_pieces = 0 if hull.is_singleton else len(hull.pieces)
    print(f"hull with {n_pieces} boundary pieces at R = {args.radius:.12g}")
    return EXIT_OK


def _sharpness_payload(verdict) -> dict:
    return {"radius": verdict.radius, "contradiction": verdict.contradiction,
            "required_constant": verdict.required_constant}


def cmd_verify_theorem(args) -> int:
    _check_tol(args.tol)
    body = _load_body(args.body)
    eps_values = _parse_eps(args.eps) if args.eps else _default_eps_grid(body)
    curve = scan_curve(body, eps_values, args.resolution)
    fit = fit_second_order(curve, window=_parse_window(args.window))
    predicted = sharp_radius(fit.C)
    measured, bracket = min_strong_radius(body, n_pairs=args.n_pairs, seed=args.seed)
    below = sharpness_check(curve, 0.95 * predicted, fit=fit, margin=args.margin)
    above = sharpness_check(curve, 1.02 * predicted, fit=fit, margin=args.margin)
    rel_err = abs(predicted - measured) / predicted
    ok = rel_err <= args.tol and below.contradiction and not above.contradiction
    payload = {
        "seed": args.seed,
        "C": fit.C,
        "window": list(fit.window),
        "predicted_radius": predicted,
        "measured_radius": measured,
        "bracket": [jsonio.Exact(b) for b in bracket],
        "relative_error": rel_err,
        "sharpness_below": _sharpness_payload(below),
        "sharpness_above": _sharpness_payload(above),
        "verified": ok,
    }
    _write_json(args.out, payload)
    print(f"predicted = {predicted:.12g}  measured = {measured:.12g}  "
          f"rel.err = {rel_err:.3g}  verified = {ok}")
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strconvex",
        description="Supporting functions, moduli of convexity, ball hulls and "
                    "strong-convexity radii of convex bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--body", required=True, help="path to a body JSON description")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the turn of the sphere grid of the radius tests "
                            "(d >= 3; seed 0 turns it too); recorded in outputs")
        p.add_argument("--out", help="output path (JSON or CSV depending on command)")

    p = sub.add_parser("modulus", help="scan the modulus of convexity and fit C")
    common(p)
    p.add_argument("--eps", help="chord-length grid A:B:N (default: diameter-scaled)")
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--window", help="fit window LO:HI (default: automatic)")
    p.set_defaults(func=cmd_modulus)

    p = sub.add_parser("radius", help="check/minimize/predict strong-convexity radii")
    common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check", type=float, help="test strong convexity at this radius")
    mode.add_argument("--minimize", action="store_true",
                      help="the smallest radius the --check test accepts")
    p.add_argument("--tol", type=float, default=0.01,
                   help="predict mode only: the chain stops within tol * 1/(8K) of its limit")
    p.add_argument("--n-pairs", type=int, default=4096)
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--margin", type=float, default=0.02,
                   help="safety margin for K below the fitted C in predict mode")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("hull", help="strongly convex hull of a planar point set")
    common(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--svg", help="SVG output path")
    p.add_argument("--kernel-overlay", action="store_true",
                   help="overlay the admissible-center kernel in the SVG")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("verify-theorem",
                       help="modulus fit vs measured minimal radius, with sharpness legs")
    common(p)
    p.add_argument("--eps", help="chord-length grid A:B:N")
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--window", help="fit window LO:HI")
    p.add_argument("--tol", type=float, default=0.05,
                   help="relative tolerance between predicted and measured radius")
    p.add_argument("--n-pairs", type=int, default=4096)
    p.add_argument("--margin", type=float, default=0.02)
    p.set_defaults(func=cmd_verify_theorem)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotUniformlyConvexError, NoEnclosingBallError, NotStronglyConvexError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NotConvergedError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except StrConvexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
