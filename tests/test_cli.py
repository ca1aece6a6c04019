import hashlib
import json
import math

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

    def test_exact_values_read_back_unchanged(self):
        lo = 3.99863509861
        hi = float(np.nextafter(lo, np.inf))
        data = json.loads(jsonio.dumps_canonical(
            {"bracket": [jsonio.Exact(lo), jsonio.Exact(hi)], "x": hi}))
        assert data["bracket"] == [lo, hi]
        assert data["x"] == lo


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
        assert data["bracket"][0] < data["bracket"][1] == data["R_min"]
        # R_min and the bracket read back as the floats the search returned
        r_min, bracket = sc.min_strong_radius(sc.Ellipsoid([0, 0], [2, 1]))
        assert data["R_min"] == r_min
        assert data["bracket"] == list(bracket)
        assert "tol" not in data

    def test_minimize_prints_two_distinct_bracket_ends(self, capsys, ellipse_json):
        assert main(["radius", "--body", ellipse_json, "--minimize"]) == 0
        line = capsys.readouterr().out
        lo, hi = line.split("bracket = [")[1].split("]")[0].split(", ")
        assert lo != hi
        assert float(lo) < float(hi)

    @pytest.mark.parametrize("semi_axes", [None, [2.0, 1.5, 1.0]])
    def test_minimize_seed_reaches_the_search(self, tmp_path, semi_axes):
        if semi_axes is None:
            body = sc.Ball([0.1, -0.2, 0.3], 1.2)
            payload = {"type": "ball", "center": [0.1, -0.2, 0.3], "radius": 1.2}
        else:
            body = sc.Ellipsoid([0, 0, 0], semi_axes)
            payload = {"type": "ellipsoid", "center": [0, 0, 0], "semi_axes": semi_axes}
        path = _write_body(tmp_path, "body3.json", payload)
        out = str(tmp_path / "min3.json")
        assert main(["radius", "--body", path, "--minimize", "--seed", "3", "--out", out]) == 0
        data = json.loads(_read(out))
        assert data["seed"] == 3
        # R_min is written in full
        assert data["R_min"] == sc.min_strong_radius(body, seed=3)[0]
        if semi_axes is not None:
            # the seed moves the sphere grid, so it moves the sampled answer
            assert data["R_min"] != pytest.approx(sc.min_strong_radius(body, seed=0)[0],
                                                  rel=1e-11)

    def test_check_seed_reaches_the_test(self, tmp_path):
        path = _write_body(tmp_path, "e3.json", {"type": "ellipsoid", "center": [0, 0, 0],
                                                 "semi_axes": [2.0, 1.5, 1.0]})
        out = str(tmp_path / "check3.json")
        assert main(["radius", "--body", path, "--check", "3.9", "--seed", "3",
                     "--out", out]) == 3
        verdict = sc.check_strong_convexity(sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]), 3.9,
                                            seed=3)
        witness = json.loads(_read(out))["witness"]
        assert witness["p1"] == pytest.approx(verdict.witness[0].tolist(), rel=1e-11)
        assert witness["violation"] == pytest.approx(verdict.witness[2], rel=1e-11)

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
                                      ["--minimize", "--tol", "nan"], ["--check", "inf"],
                                      ["--tol", "inf"], ["--tol", "0"]])
    def test_nan_radius_or_tol_exit_2(self, ball_json, args):
        assert main(["radius", "--body", ball_json] + args) == 2

    @pytest.mark.parametrize("mode", [["--minimize"], ["--check", "1.5"]])
    @pytest.mark.parametrize("n_pairs", ["0", "-5"])
    def test_nonpositive_pair_count_exit_2(self, capsys, ball_json, mode, n_pairs):
        assert main(["radius", "--body", ball_json, "--n-pairs", n_pairs] + mode) == 2
        assert "n_pairs must be a positive whole number" in capsys.readouterr().err

    def test_check_reads_the_gate_of_minimize(self, tmp_path, capsys, square_json):
        # above the square's largest pair threshold the check raises what
        # --minimize raises, and writes no verdict
        out = tmp_path / "verdict.json"
        assert main(["radius", "--body", square_json, "--check", "10000",
                     "--out", str(out)]) == 4
        assert "not uniformly convex" in capsys.readouterr().err
        assert not out.exists()
        assert main(["radius", "--body", square_json, "--minimize"]) == 4

    def test_check_below_the_largest_threshold_finds_a_witness(self, tmp_path, square_json):
        out = str(tmp_path / "verdict.json")
        assert main(["radius", "--body", square_json, "--check", "100", "--out", out]) == 3
        verdict = json.loads(_read(out))
        assert verdict["is_convex"] is False
        assert verdict["witness"]["violation"] > verdict["tol"]

    def test_check_accepts_a_point_at_any_radius(self, tmp_path):
        # a one-point hull's pair thresholds are rounding, above 1e-11
        point = _write_body(tmp_path, "point.json", {"type": "hull", "points": [[0.3, -0.4]]})
        out = str(tmp_path / "verdict.json")
        assert main(["radius", "--body", point, "--check", "1e-11", "--out", out]) == 0
        assert json.loads(_read(out))["is_convex"] is True

    def test_check_and_minimize_exclude_each_other(self, capsys, ball_json):
        with pytest.raises(SystemExit) as info:
            main(["radius", "--body", ball_json, "--check", "1.5", "--minimize"])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


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
        bracket = sc.min_strong_radius(sc.Ball([0, 0], 1.0))[1]
        assert data["bracket"] == list(bracket)
        assert data["bracket"][0] < data["bracket"][1]
        # every other value keeps 12 significant digits
        assert data["C"] == float(f"{data['C']:.12g}")

    def test_square_exit_4(self, square_json):
        assert main(["verify-theorem", "--body", square_json, "--resolution", "512"]) == 4

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_nan_or_nonpositive_or_infinite_tol_exit_2(self, capsys, ball_json, tol):
        assert main(["verify-theorem", "--body", ball_json, "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_nonpositive_pair_count_exit_2(self, capsys, ball_json):
        assert main(["verify-theorem", "--body", ball_json, "--n-pairs", "0"]) == 2
        assert "n_pairs must be a positive whole number" in capsys.readouterr().err


class TestSvg:
    def test_arc_paths_and_scale(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        text = svgio.render_svg([L], points=[[-0.6, 0], [0.6, 0]])
        assert text.count("<path") == 1
        assert text.count("<circle") == 2
        # lens is 1.2 x 0.4 world units: width 120 + 2 margins of 6
        assert 'width="132"' in text

    def test_lens_bytes_are_pinned(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        text = svgio.render_svg([L], points=[[-0.6, 0], [0.6, 0]])
        assert hashlib.md5(text.encode()).hexdigest() == "d6c9889d1c956ae4a3742ed9ec31677f"

    def test_hull_with_kernel_overlay_bytes_are_pinned(self, tmp_path):
        # 200 points strewn in a disc, with an antipodal pair on its rim, then
        # scaled, turned and moved; the hull at twice the enclosing radius
        rng = np.random.default_rng([1, 200])
        t = rng.uniform(0.0, 2.0 * math.pi, 200)
        rad = np.sqrt(rng.uniform(0.0, 1.0, 200))
        pts = np.stack([rad * np.cos(t), rad * np.sin(t)], axis=1)
        pts[:2] = [[1.0, 0.0], [-1.0, 0.0]]
        c, s = math.cos(0.9), math.sin(0.9)
        pts = 1.3 * pts @ np.array([[c, -s], [s, c]]).T + [0.4, -0.7]
        body = _write_body(tmp_path, "points.json", {"type": "hull", "points": pts.tolist()})
        svg = tmp_path / "hull.svg"
        assert main(["hull", "--body", body, "--radius", "2.6", "--out",
                     str(tmp_path / "hull.json"), "--svg", str(svg), "--kernel-overlay"]) == 0
        data = svg.read_bytes()
        assert data.count(b"<path") == 2
        assert hashlib.md5(data).hexdigest() == "b4105736dcc707a52411d6fa6a61ab30"
