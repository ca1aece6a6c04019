import json

import numpy as np
import pytest

import strconvex as sc
from strconvex import jsonio, svgio
from strconvex.cli import main


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_body(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ball_json(tmp_path):
    return _write_body(tmp_path, "ball.json", {"type": "ball", "center": [0, 0], "radius": 1.0})


@pytest.fixture
def ellipse_json(tmp_path):
    return _write_body(tmp_path, "ellipse.json",
                       {"type": "ellipsoid", "center": [0, 0], "semi_axes": [2, 1]})


@pytest.fixture
def square_json(tmp_path):
    return _write_body(tmp_path, "square.json",
                       {"type": "hull", "points": [[-1, -1], [1, -1], [1, 1], [-1, 1]]})


class TestJsonRoundTrip:
    def test_all_body_kinds(self):
        bodies = [
            sc.Ball([0.5, -1], 2.0),
            sc.Ellipsoid([0, 0], [2, 1], np.array([[0, -1], [1, 0]], dtype=float)),
            sc.PointHull([[0, 0], [1, 0], [0, 1]]),
            sc.MinkowskiSum([sc.Ball([0, 0], 1.0), sc.PointHull([[1, 1]])]),
            sc.lens([-0.6, 0], [0.6, 0], 1.0),
            sc.ArcPolygon.singleton([2.0, 3.0]),
        ]
        for body in bodies:
            clone = jsonio.body_from_dict(jsonio.body_to_dict(body))
            grid = sc.angle_grid(64)
            assert np.allclose(body.support_values(grid), clone.support_values(grid), atol=1e-12)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            jsonio.body_from_dict({"type": "torus"})

    def test_malformed(self):
        with pytest.raises(ValueError):
            jsonio.body_from_dict({"type": "ball", "center": [0, 0]})

    def test_canonical_digits(self):
        text = jsonio.dumps_canonical({"x": 0.1234567890123456789})
        assert "0.123456789012" in text


class TestModulusCommand:
    def test_ball_scan_and_fit(self, tmp_path, ball_json):
        out = str(tmp_path / "curve.csv")
        code = main(["modulus", "--body", ball_json, "--eps", "0.05:1.0:20",
                     "--out", out, "--resolution", "1024"])
        assert code == 0
        rows = [r for r in _read(out).splitlines() if not r.startswith("#")]
        assert rows[0] == "eps,delta,error_bound"
        assert len(rows) == 21
        fit = json.loads(_read(str(tmp_path / "curve.fit.json")))
        assert fit["C"] == pytest.approx(0.125, rel=0.01)
        assert fit["seed"] == 0

    def test_square_not_uniformly_convex(self, tmp_path, square_json):
        code = main(["modulus", "--body", square_json, "--resolution", "512",
                     "--out", str(tmp_path / "sq.csv")])
        assert code == 4

    def test_ellipse_constant(self, tmp_path, ellipse_json):
        out = str(tmp_path / "e.csv")
        code = main(["modulus", "--body", ellipse_json, "--eps", "0.08:0.8:10",
                     "--resolution", "2048", "--out", out])
        assert code == 0
        fit = json.loads(_read(str(tmp_path / "e.fit.json")))
        assert fit["C"] == pytest.approx(1 / 32, rel=0.05)

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["modulus", "--body", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["modulus", "--body", "/nonexistent/x.json"]) == 2

    def test_determinism(self, tmp_path, ball_json):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        for out in (out1, out2):
            assert main(["modulus", "--body", ball_json, "--eps", "0.05:0.5:8",
                         "--resolution", "512", "--out", out, "--seed", "7"]) == 0
        assert _read(out1) == _read(out2)
        assert _read(str(tmp_path / "a.fit.json")) == _read(str(tmp_path / "b.fit.json"))


class TestRadiusCommand:
    def test_check_pass(self, ball_json):
        assert main(["radius", "--body", ball_json, "--check", "1.0"]) == 0

    def test_check_witness(self, tmp_path, ball_json):
        out = str(tmp_path / "verdict.json")
        assert main(["radius", "--body", ball_json, "--check", "0.9", "--out", out]) == 3
        verdict = json.loads(_read(out))
        assert verdict["is_convex"] is False
        assert verdict["witness"]["violation"] > verdict["tol"]
        assert verdict["samples"] >= 4096

    def test_minimize_ellipse(self, tmp_path, ellipse_json):
        out = str(tmp_path / "min.json")
        assert main(["radius", "--body", ellipse_json, "--minimize",
                     "--tol", "0.01", "--out", out]) == 0
        data = json.loads(_read(out))
        assert 3.96 <= data["R_min"] <= 4.04

    def test_predict_chain(self, tmp_path, ball_json):
        out = str(tmp_path / "chain.json")
        assert main(["radius", "--body", ball_json, "--resolution", "1024",
                     "--out", out]) == 0
        data = json.loads(_read(out))
        assert data["sharp_radius"] == pytest.approx(1.0, rel=0.02)
        assert data["zero_step_radius"] == pytest.approx(2.0 / 0.98, rel=0.02)
        assert data["limit"] == pytest.approx(1.0 / 0.98, rel=0.02)
        assert data["iterates"][0] == data["zero_step_radius"]


    @pytest.mark.parametrize("args", [["--check", "nan"], ["--check", "0"],
                                      ["--minimize", "--tol", "nan"]])
    def test_nan_radius_or_tol_exit_2(self, ball_json, args):
        assert main(["radius", "--body", ball_json] + args) == 2


class TestHullCommand:
    def test_two_point_lens_svg(self, tmp_path):
        body = _write_body(tmp_path, "pts.json",
                           {"type": "hull", "points": [[-0.6, 0], [0.6, 0]]})
        out = str(tmp_path / "hull.json")
        svg = str(tmp_path / "hull.svg")
        assert main(["hull", "--body", body, "--radius", "1.0",
                     "--out", out, "--svg", svg]) == 0
        data = json.loads(_read(out))
        arcs = [p for p in data["pieces"] if p["kind"] == "arc"]
        assert len(arcs) == 2
        assert all(p["radius"] == 1.0 for p in arcs)
        text = _read(svg)
        assert text.startswith("<svg") and " A " in text

    def test_determinism_across_runs(self, tmp_path):
        rng = np.random.default_rng(42)
        pts = rng.random((10, 2)).tolist()
        body = _write_body(tmp_path, "pts.json", {"type": "hull", "points": pts})
        outs = []
        for name in ("h1.json", "h2.json"):
            out = str(tmp_path / name)
            assert main(["hull", "--body", body, "--radius", "2.0",
                         "--out", out, "--seed", "42"]) == 0
            outs.append(_read(out))
        assert outs[0] == outs[1]

    def test_interior_points_and_repeats_change_nothing(self, tmp_path):
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 2.0 * np.pi, 200)
        rad = np.sqrt(rng.uniform(0.0, 1.0, 200))
        pts = np.stack([rad * np.cos(t), rad * np.sin(t)], axis=1) * 1.3 + [0.4, -2.1]
        mids = 0.5 * (pts[rng.integers(0, 200, 60)] + pts[rng.integers(0, 200, 60)])
        inner = pts.mean(axis=0) + 0.9 * (mids - pts.mean(axis=0))
        more = np.insert(pts, rng.integers(0, 201, 60), inner, axis=0)
        # repeats go last, so the first occurrence of every point keeps its place
        more = np.vstack([more, pts[rng.integers(0, 200, 40)], more[:5]])
        texts = []
        for name, points in (("a", pts), ("b", more)):
            body = _write_body(tmp_path, f"{name}.json",
                               {"type": "hull", "points": points.tolist()})
            out, svg = str(tmp_path / f"{name}.hull.json"), str(tmp_path / f"{name}.svg")
            assert main(["hull", "--body", body, "--radius", "2.6", "--out", out,
                         "--svg", svg, "--kernel-overlay"]) == 0
            texts.append((_read(out), _read(svg).splitlines()))
        (json_a, svg_a), (json_b, svg_b) = texts
        assert json_a == json_b
        # the SVG marks every input point; all else is byte-identical
        shapes_a = [ln for ln in svg_a if "<circle" not in ln]
        assert shapes_a == [ln for ln in svg_b if "<circle" not in ln]
        assert set(ln for ln in svg_a if "<circle" in ln) <= set(svg_b)

    def test_too_small_radius_exit_4(self, tmp_path, square_json):
        assert main(["hull", "--body", square_json, "--radius", "0.5"]) == 4

    @pytest.mark.parametrize("radius", ["nan", "inf", "0"])
    def test_nan_or_infinite_radius_exit_2(self, square_json, radius):
        assert main(["hull", "--body", square_json, "--radius", radius]) == 2


class TestVerifyTheoremCommand:
    def test_ball_verifies(self, tmp_path, ball_json):
        out = str(tmp_path / "verify.json")
        code = main(["verify-theorem", "--body", ball_json, "--resolution", "1024",
                     "--out", out])
        assert code == 0
        data = json.loads(_read(out))
        assert data["verified"] is True
        assert data["predicted_radius"] == pytest.approx(1.0, rel=0.02)
        assert data["measured_radius"] == pytest.approx(1.0, rel=0.01)
        assert data["sharpness_below"]["contradiction"] is True
        assert data["sharpness_above"]["contradiction"] is False

    def test_square_exit_4(self, square_json):
        assert main(["verify-theorem", "--body", square_json, "--resolution", "512"]) == 4


class TestSvg:
    def test_arc_paths_and_scale(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        text = svgio.render_svg([L], points=[[-0.6, 0], [0.6, 0]])
        assert text.count("<path") == 1
        assert text.count("<circle") == 2
        # lens is 1.2 x 0.4 world units: width 120 + 2 margins of 6
        assert 'width="132"' in text
