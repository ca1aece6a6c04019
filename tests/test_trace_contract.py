"""Every function the benchmark's tracer wraps still exists and yields its counters.

perfbench/spans.py finds the traced functions by name and reads their counters
from the call arguments and results; a renamed function or parameter silently
drops per-layer metrics from a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np

import strconvex as sc
from strconvex.arcpoly import _hull_vertices

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_records_modulus_counters():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        sc.modulus_curve(sc.Ball([0.0, 0.0], 1.0), [0.3, 0.6], 64)
    finally:
        tracer.uninstall()
    agg = spans.aggregate(tracer.spans)
    chords = agg["modulus.chord_search"]
    assert chords["calls"] == 2
    assert chords["counts"]["pairs"] == 2 * 64 * 64
    assert chords["counts"]["chords"] > 0
    radii = agg["modulus.inscribed_radii"]
    assert radii["calls"] == 2
    assert radii["counts"]["points"] == chords["counts"]["chords"]


def test_tracer_records_one_sectioned_call_per_three_dimensional_curve():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        sc.modulus_curve(sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0]), [0.3, 0.6], 64)
    finally:
        tracer.uninstall()
    agg = spans.aggregate(tracer.spans)
    sectioned = agg["modulus.sectioned"]
    assert sectioned["calls"] == 1
    assert sectioned["counts"]["sections"] == 8
    chords = agg["modulus.chord_search"]
    assert chords["calls"] == 2 * 8
    assert chords["counts"]["pairs"] == 2 * 8 * 64 * 64
    assert chords["counts"]["chords"] > 0
    # each section runs the one depth step, once per eps
    radii = agg["modulus.inscribed_radii"]
    assert radii["calls"] == 2 * 8
    assert radii["counts"]["points"] == chords["counts"]["chords"]


def test_tracer_records_sphere_grid_calls_of_a_three_dimensional_radius():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        sc.min_strong_radius(sc.Ball([0.1, -0.2, 0.3], 1.2))
    finally:
        tracer.uninstall()
    assert spans.aggregate(tracer.spans)["bodies.sphere_grid"]["calls"] > 0


def test_planar_minimal_radius_runs_no_convexity_check():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        sc.min_strong_radius(sc.Ellipsoid([0.0, 0.0], [2.0, 1.0]))
    finally:
        tracer.uninstall()
    agg = spans.aggregate(tracer.spans)
    assert agg["strongconv.min_radius"]["calls"] == 1
    assert "strongconv.check" not in agg
    assert "strongconv.min_radius.checks" not in agg


def test_minimal_radius_runs_no_modulus_estimate():
    # the growth gate reads the pair table; no modulus probe runs first
    spans = _load_spans()
    for body in (sc.Ellipsoid([0.0, 0.0], [2.0, 1.0]), sc.Ball([0.1, -0.2, 0.3], 1.2)):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert tracer.absent == []
            sc.min_strong_radius(body)
        finally:
            tracer.uninstall()
        agg = spans.aggregate(tracer.spans)
        assert agg["strongconv.min_radius"]["calls"] == 1
        assert "modulus.sectioned" not in agg
        assert "modulus.boundary_param" not in agg


def test_tracer_sees_the_hull_path_run_on_hull_vertices():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2.0 * np.pi, 200)
    rad = np.sqrt(rng.uniform(0.0, 1.0, 200))
    pts = np.stack([rad * np.cos(t), rad * np.sin(t)], axis=1)
    pts[:2] = [[1.0, 0.0], [-1.0, 0.0]]
    h = len(_hull_vertices(pts))
    k = len(sc.disk_intersection(pts, 2.0).vertices())
    assert h < 40
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        sc.r_hull(pts, 2.0)
    finally:
        tracer.uninstall()
    # _dedupe runs once, on the hull vertices of the points; the hull is read
    # off the kernel, with no second disk intersection
    dedupe = sorted(counts["points"] for name, *_, counts in tracer.spans
                    if name == "arcpoly.dedupe")
    assert dedupe == [h]
    assert spans.aggregate(tracer.spans)["arcpoly.clip"]["calls"] <= 2 * h + k
