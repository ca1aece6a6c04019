"""Spans around calls into the strconvex modules, recorded from outside.

Each layer is one module of ``strconvex``.  ``Tracer.install`` replaces every
binding of a traced function (the defining module, modules that imported it by
name, and the package re-exports) with a wrapper that records a span: name,
start, end and parent.  Spans stay in memory; ``aggregate`` turns them into
per-span self times and counts when the run ends.  A target that no longer
exists is skipped and its metrics are reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layers whose public functions get a "<layer>.other" span unless named below,
# so that their own work is not charged to the caller.
LAYERS = ("modulus", "bodies", "strongconv", "radius_theory", "seb", "arcpoly",
          "cli", "jsonio", "svgio")


def _chords(args, result):
    return 0 if result is None else len(result[0])


def _dirs(args, result):
    return len(args["P"])


# (module, attribute path, span name, counters).  Each counter maps the bound
# call arguments and the result to a count summed per span name and reported
# as "<span>.<key>".  "pairs" of the chord search is computed from array
# sizes: the n x n distance entries the search scans.
NAMED = [
    ("modulus", "_chords_of_length", "modulus.chord_search",
     {"pairs": lambda a, r: len(a["points"]) ** 2, "chords": _chords}),
    ("modulus", "BoundaryParam.inscribed_radii", "modulus.inscribed_radii",
     {"points": lambda a, r: len(a["pts"])}),
    ("modulus", "BoundaryParam.__init__", "modulus.boundary_param", {}),
    ("modulus", "_sectioned_estimate", "modulus.sectioned",
     {"sections": lambda a, r: int(a["sections"])}),
    ("modulus", "fit_second_order", "modulus.fit", {}),
    ("bodies", "default_grid", "bodies.default_grid", {}),
    ("bodies", "sphere_grid", "bodies.sphere_grid", {}),
    ("bodies", "steiner_point", "bodies.steiner_point", {}),
    ("strongconv", "check_strong_convexity", "strongconv.check",
     {"pairs": lambda a, r: int(r.samples_tested)}),
    ("strongconv", "min_strong_radius", "strongconv.min_radius", {}),
    ("radius_theory", "radius_fixed_point", "radius_theory.fixed_point",
     {"iterations": lambda a, r: len(r.values) - 1}),
    ("seb", "smallest_enclosing_circle", "seb", {"points": lambda a, r: len(a["points"])}),
    ("arcpoly", "r_hull", "arcpoly.r_hull", {"pieces": lambda a, r: len(r.pieces)}),
    ("arcpoly", "disk_intersection", "arcpoly.disk_intersection", {}),
    ("arcpoly", "clip_with_disk", "arcpoly.clip", {}),
    ("arcpoly", "_dedupe", "arcpoly.dedupe", {"points": lambda a, r: len(a["points"])}),
    ("arcpoly", "ArcPolygon.support_values", "arcpoly.support_values", {"dirs": _dirs}),
    ("arcpoly", "ArcPolygon.support_points", "arcpoly.support_points", {"dirs": _dirs}),
    ("cli", "scan_curve", "cli.scan_curve", {}),
    ("jsonio", "load_body", "jsonio.load_body", {}),
    ("jsonio", "dumps_canonical", "jsonio.dumps", {}),
    ("svgio", "render_svg", "svgio.render_svg", {}),
]

# The batch oracles of every body class defined in ``bodies``.
BODY_METHODS = [("support_values", "bodies.support_values"),
                ("support_points", "bodies.support_points")]

# Every span the tracer can record, with its counter keys.
SPAN_COUNTERS = {
    **{span: list(counters) for _, _, span, counters in NAMED},
    **{span: ["dirs"] for _, span in BODY_METHODS},
    **{f"{layer}.other": [] for layer in LAYERS},
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, counts]
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self.absent = []     # targets missing from the program

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, counters):
        sig = inspect.signature(fn)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counters:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec[4] = {k: c(bound.arguments, result) for k, c in counters.items()}
                except (KeyError, TypeError, AttributeError):
                    rec[4] = {}
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {}
        for name in LAYERS:
            try:
                mods[name] = importlib.import_module(f"strconvex.{name}")
            except ModuleNotFoundError:
                mods[name] = None
                self.absent.append(f"{name}.other")
        bindings = [m for n, m in sys.modules.items()
                    if m is not None and (n == "strconvex" or n.startswith("strconvex."))]
        named = set()

        def wrap_function(fn, span, counters):
            wrapped = self._wrap(fn, span, counters)
            for mod in bindings:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

        for layer, path, span, counters in NAMED:
            owner, _, attr = path.rpartition(".")
            target = mods[layer]
            if owner and target is not None:
                target = getattr(target, owner, None)
            fn = vars(target).get(attr) if target is not None else None
            if not callable(fn):
                self.absent.append(span)
            elif owner:
                self._patch(target, attr, self._wrap(fn, span, counters))
            else:
                named.add(fn)
                wrap_function(fn, span, counters)

        bodies = mods["bodies"]
        base = getattr(bodies, "ConvexBody", None)
        classes = [c for c in vars(bodies).values()
                   if isinstance(c, type) and issubclass(c, base)
                   and c.__module__ == bodies.__name__] if base else []
        for method, span in BODY_METHODS:
            owners = [c for c in classes if method in vars(c)]
            if not owners:
                self.absent.append(span)
            for cls in owners:
                self._patch(cls, method, self._wrap(vars(cls)[method], span,
                                                    {"dirs": _dirs}))

        for layer, mod in mods.items():
            if mod is None:
                continue
            for fn in [v for k, v in vars(mod).items()
                       if inspect.isfunction(v) and not k.startswith("_")
                       and v.__module__ == mod.__name__ and v not in named
                       and not hasattr(v, "__wrapped_by_perfbench__")]:
                named.add(fn)
                wrap_function(fn, f"{layer}.other", {})

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def aggregate(spans):
    """Self time, calls and counts per span name.

    Self time is a span's duration minus the time its child spans cover.  The
    entry "strongconv.min_radius.checks" counts check spans nested in a
    minimal-radius search.
    """
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, counts) in enumerate(spans):
        row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "counts": {}})
        row["self_s"] += (end - start) - child_time[i]
        row["calls"] += 1
        for key, value in (counts or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
        if name == "strongconv.check":
            p = parent
            while p >= 0 and spans[p][0] != "strongconv.min_radius":
                p = spans[p][3]
            if p >= 0:
                nested = out.setdefault("strongconv.min_radius.checks",
                                        {"self_s": 0.0, "calls": 0, "counts": {}})
                nested["calls"] += 1
    return out


def merge(total, part):
    """Add one aggregate (as produced by ``aggregate``) into another."""
    for name, row in part.items():
        dst = total.setdefault(name, {"self_s": 0.0, "calls": 0, "counts": {}})
        dst["self_s"] += row["self_s"]
        dst["calls"] += row["calls"]
        for key, value in row["counts"].items():
            dst["counts"][key] = dst["counts"].get(key, 0) + value
    return total


def layer_metrics(agg, ops, absent):
    """Per-operation metrics of every span, plus the derived entries.

    Each span gives "<span>.s" (self seconds), "<span>.calls" and one
    "<span>.<key>" per counter key.  A span the program no longer has, or a
    counter its calls no longer yield, is left out (reported absent), never
    reported as zero.
    """
    absent = set(absent)
    out = {}
    for span, keys in SPAN_COUNTERS.items():
        if span in absent:
            continue
        row = agg.get(span, {"self_s": 0.0, "calls": 0, "counts": {}})
        out[f"{span}.s"] = (row["self_s"] / ops, "s/op")
        out[f"{span}.calls"] = (row["calls"] / ops, "calls/op")
        for key in keys:
            if key in row["counts"] or row["calls"] == 0:
                out[f"{span}.{key}"] = (row["counts"].get(key, 0) / ops, f"{key}/op")
    if "arcpoly.r_hull.pieces" in out:
        out["arcpoly.hull_pieces"] = out.pop("arcpoly.r_hull.pieces")
    if "strongconv.min_radius" not in absent and "strongconv.check" not in absent:
        calls = agg.get("strongconv.min_radius", {}).get("calls", 0)
        nested = agg.get("strongconv.min_radius.checks", {}).get("calls", 0)
        out["strongconv.min_radius.checks_per_call"] = (nested / calls if calls else 0.0,
                                                        "checks/call")
    theory = [agg[s]["self_s"] for s in ("radius_theory.fixed_point", "radius_theory.other")
              if s in agg]
    out["radius_theory.s"] = (sum(theory) / ops, "s/op")
    return out
