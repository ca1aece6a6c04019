"""Every function the benchmark's tracer wraps still exists and yields its counters.

perfbench/spans.py finds the traced functions by name and reads their counters
from the call arguments and results; a renamed function or parameter silently
drops per-layer metrics from a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import strconvex as sc

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
