import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from parastar.cli import main

PI = math.pi


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "parastar", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


class TestEval:
    def test_map_value(self, capsys):
        assert main(["eval", "--target", "left_parabola", "--z", "-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert abs(payload["value"]["re"] - 1.5) < 1e-12
        assert payload["value"]["im"] == 0.0

    def test_janowski_params(self, capsys):
        assert main(["eval", "--target", "janowski", "--z", "0.5",
                     "--A", "1", "--B", "-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"]["re"] - 3.0) < 1e-12

    def test_oblique_point_evaluation(self, capsys):
        assert main(["eval", "--target", "parabola", "--z", "0.25",
                     "--tau", "0.3", "--theta", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"] == {"tau": 0.3, "theta": 0.1}

    def test_singular_point_is_usage_error(self, capsys):
        assert main(["eval", "--target", "left_parabola", "--z", "1"]) == 2

    def test_parabola_defaults(self, capsys):
        assert main(["eval", "--target", "parabola", "--z", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"tau": 0.0, "theta": 0.0}

    def test_parabola_rejects_class_parameters(self, capsys):
        assert main(["eval", "--target", "parabola", "--z", "0.3",
                     "--A", "0.5", "--B", "-0.5"]) == 2
        assert "unexpected parameters for parabola: ['A', 'B']" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tau", "--theta"])
    def test_other_targets_reject_tau_and_theta(self, flag, capsys):
        assert main(["eval", "--target", "sine", "--z", "0.3", flag, "1.0"]) == 2
        assert f"unexpected parameters for sine: ['{flag[2:]}']" in capsys.readouterr().err


class TestSeries:
    def test_csv_shape(self, capsys):
        assert main(["series", "--which", "g0", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# schema: 1"
        assert lines[1] == "index,re,im"
        idx, re_, im_ = lines[4].split(",")
        assert idx == "2"
        assert abs(float(re_) - 8.0 / PI**2) < 1e-15
        assert float(im_) == 0.0


class TestRadius:
    def test_single_entry(self, capsys):
        assert main(["radius", "sine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["closed_form"] - PI / 6.0) < 1e-15
        assert payload["gap"] < 1e-9

    def test_with_params(self, capsys):
        assert main(["radius", "janowski", "--A", "0.5", "--B", "-0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == 0.4
        assert payload["gap"] < 1e-9

    def test_unknown_id(self):
        assert main(["radius", "bogus"]) == 2

    @pytest.mark.parametrize("entry_id", ["caratheodory", "disc_class", "beta_disc",
                                          "ratio", "mbeta"])
    def test_missing_parameter_is_usage_error(self, entry_id, capsys):
        assert main(["radius", entry_id]) == 2
        assert f"{entry_id} needs" in capsys.readouterr().err

    def test_unexpected_parameter_is_usage_error(self, capsys):
        assert main(["radius", "sp", "--alpha", "0.3"]) == 2
        assert "unexpected parameters for sp: ['alpha']" in capsys.readouterr().err

    @pytest.mark.parametrize("entry_id", ["sp", "r7_nephroid"])
    def test_parameter_free_entries(self, entry_id, capsys):
        assert main(["radius", entry_id]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] < 1e-9


class TestRadiusTable:
    def test_contains_expected_rows(self, capsys):
        assert main(["radius-table"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[1] == "id,closed_form,oracle_root,gap"
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[2:]}
        assert abs(float(table["lune"][0]) - 5.0 / 12.0) < 1e-15
        assert abs(float(table["sp"][0]) - math.tanh(PI / 4.0) ** 2) < 1e-15
        assert all(float(cols[2]) < 1e-9 for cols in table.values())

    def test_markdown(self, capsys):
        assert main(["radius-table", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| id |")
        assert "| sine |" in out


class TestVerify:
    def test_only_filter_single_report(self, capsys):
        assert main(["verify", "--only", "radius/majorization"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["passed"] is True
        assert payload["id"] == "radius/majorization"

    def test_positional_radius_shortcut(self, capsys):
        assert main(["verify", "majorization"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["id"] == "radius/majorization"

    def test_requires_scope(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["sp", "--only", "growth"], ["--all", "--only", "growth"],
                                      ["--all", "sp"]])
    def test_scopes_are_exclusive(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", *argv])
        assert err.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_unmatched_filter_is_usage_error(self, capsys):
        assert main(["verify", "--only", "nomatch"]) == 2
        assert "no check id contains 'nomatch'" in capsys.readouterr().err

    def test_zero_samples_is_usage_error(self, capsys):
        assert main(["verify", "--only", "growth/random", "--samples", "0"]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err

    def test_samples_passed_through(self, capsys):
        assert main(["verify", "--only", "growth/random", "--samples", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 1

    def test_impossible_tolerance_fails(self, capsys):
        # below double precision the refined circle-max root cannot match
        assert main(["verify", "--only", "radius/sp", "--tol", "1e-15"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["gap"] > 0.0


class TestCertify:
    def _write_series(self, path, c):
        path.write_text("index,re,im\n0,0,0\n1,1,0\n2,{},0\n".format(c))

    def test_pass_and_fail(self, tmp_path):
        good = tmp_path / "good.csv"
        self._write_series(good, 0.3)
        assert main(["certify", "--series", str(good), "--t", "0"]) == 0
        bad = tmp_path / "bad.csv"
        self._write_series(bad, 0.4)
        assert main(["certify", "--series", str(bad), "--t", "0"]) == 1

    def test_missing_file(self):
        assert main(["certify", "--series", "/nonexistent.csv", "--t", "0"]) == 2


class TestPlot:
    def test_region_svg_parses(self, tmp_path):
        out = tmp_path / "region.svg"
        assert main(["plot", "region", "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) >= 3

    def test_region_csv_contains_vertex(self, capsys):
        assert main(["plot", "region", "--format", "csv", "--samples", "129"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema: 1")
        assert "\nboundary,64,1.5,0\n" in out or ",1.5,0" in out

    def test_map_image(self, capsys):
        assert main(["plot", "map-image", "--r", "0.5", "--format", "csv"]) == 0
        assert "left_parabola_r=0.5" in capsys.readouterr().out

    def test_corollary_figure(self, capsys):
        from parastar import corollary_radius

        for entry, target in (
                ("r1_exp", "alpha_exp"), ("r2_sine", "sine"), ("r3_cosh_sqrt", "cosh_sqrt"),
                ("r4_cardioid", "cardioid"), ("r5_asinh", "asinh"), ("r6_sigmoid", "sigmoid"),
                ("r7_nephroid", "nephroid"), ("r8_lemniscate", "lemniscate"),
                ("r9_reverse_lemniscate", "reverse_lemniscate")):
            assert main(["plot", "corollary-figure", "--entry", entry,
                         "--format", "csv"]) == 0
            out = capsys.readouterr().out
            assert f"\n{target}_boundary,0," in out
            assert f"\nimage_r={corollary_radius(entry).closed_form:.6f},0," in out

    def test_discs_default_and_given_centres(self, capsys):
        assert main(["plot", "discs", "--format", "csv"]) == 0
        default = capsys.readouterr().out
        curves = {line.split(",")[0] for line in default.splitlines()[2:]}
        assert curves == {"boundary", "tangent_plus", "tangent_minus",
                          "disc_a=0", "disc_a=1"}
        assert main(["plot", "discs", "--discs", "0,1", "--format", "csv"]) == 0
        assert capsys.readouterr().out == default

    def test_image_fills_out_to_boundary(self):
        # every boundary point in a bounded window gets approached by the
        # image circle as r -> 1 (the image sweeps out the whole region)
        import numpy as np
        from parastar import boundary_points, left_parabola

        bound = boundary_points(2000, y_max=math.sqrt(7.0))  # window x >= -2

        def gap(r):
            theta = np.linspace(-PI, PI, 2048, endpoint=False) + PI / 2048
            img = left_parabola(r * np.exp(1j * theta))
            return float(np.min(np.abs(bound[:, None] - img[None, :]), axis=1).max())

        assert gap(0.99) < gap(0.9) < gap(0.6)


class TestSubprocessEntry:
    def test_module_invocation(self):
        code, out, _ = run_cli("radius", "lune")
        assert code == 0
        assert json.loads(out)["gap"] < 1e-9

    def test_usage_error_exit_code(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2


class TestScipyFree:
    """The runtime needs numpy only; scipy is a test-only reference."""

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import parastar, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_growth_checks_load_no_scipy(self):
        # -X importtime lists every module imported, one per stderr line
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "parastar",
                               "verify", "--only", "growth"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 3
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "parastar.oracle" in imported
        assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]
