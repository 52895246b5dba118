import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from parastar import cli
from parastar.cli import MAX_DEGREE, _read_series_csv, main

PI = math.pi
DATA = Path(__file__).resolve().parent / "data"


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

    def test_target_choices_in_catalog_order(self, capsys):
        # the choices and their order, as `eval --help` lists them
        names = ["alpha_exp", "alpha_sqrt", "cardioid", "sigmoid", "sine", "asinh",
                 "cosh_sqrt", "lune", "lemniscate", "janowski", "nephroid",
                 "ronning_parabola", "reverse_lemniscate", "left_parabola"]
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        assert "--target {" + ",".join(names) + "}" in capsys.readouterr().out

    def test_singular_point_is_usage_error(self, capsys):
        assert main(["eval", "--target", "left_parabola", "--z", "1"]) == 2

    def test_malformed_point_is_usage_error(self, capsys):
        # argparse reads --z as a complex number and names the value
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--target", "left_parabola", "--z", "abc"])
        assert exc.value.code == 2
        assert "invalid complex value: 'abc'" in capsys.readouterr().err

    def test_value_error_in_a_command_propagates(self, monkeypatch):
        # only ParastarError and OSError are usage errors; a ValueError from
        # inside a command is a bug and must not exit 2
        def boom():
            raise ValueError("numpy bug")

        monkeypatch.setattr(cli.radii, "default_entries", boom)
        with pytest.raises(ValueError, match="numpy bug"):
            main(["radius-table"])

    @pytest.mark.parametrize("argv", [
        ["eval", "--target", "parabola", "--z", "0.3"],
        ["eval", "--target", "left_parabola", "--z", "0.3", "--tau", "1"],
        ["eval", "--target", "sine", "--z", "0.3", "--theta", "1"],
        ["plot", "discs"],
    ], ids=["parabola", "--tau", "--theta", "plot-discs"])
    def test_removed_paths_are_usage_errors(self, argv, capsys):
        # --target takes exactly the names in maps.TARGETS, there are no
        # rotation flags, and discs are drawn by `plot region --discs`
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    def test_n_above_max_degree_is_usage_error(self, capsys):
        # the recurrence is O(n^2): n = 200,000 would take seconds to minutes
        assert main(["series", "--n", str(MAX_DEGREE + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exceeds the maximum degree {MAX_DEGREE}" in captured.err

    def test_n_at_max_degree_is_built(self, capsys):
        assert main(["series", "--which", "p0", "--n", str(MAX_DEGREE)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith(f"{MAX_DEGREE},")


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

    @pytest.mark.parametrize("args, message", [
        (["caratheodory", "--alpha", "1"], "caratheodory needs alpha in [0, 1)"),
        (["disc_class", "--alpha", "0"], "disc_class needs alpha in (0, 1]"),
        (["beta_disc", "--beta", "1"], "beta_disc needs beta in (0, 1)"),
        (["ratio", "--A", "1.5"], "ratio needs A in [-1, 1]"),
        (["mbeta", "--beta", "1.5"], "mbeta needs beta in (1, 3/2)"),
        (["bs", "--alpha", "1"], "bs needs alpha in [0, 1)"),
        (["janowski", "--A", "0.5", "--B", "0.5"], "janowski needs -1 < B < A <= 1"),
    ])
    def test_parameter_outside_range_is_usage_error(self, args, message, capsys):
        assert main(["radius", *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unexpected_parameter_is_usage_error(self, capsys):
        assert main(["radius", "sp", "--alpha", "0.3"]) == 2
        assert "unexpected parameters for sp: ['alpha']" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mbeta", "--beta", "1.000000000001"], ["mbeta", "--beta", "1.499999999999"],
        ["disc_class", "--alpha", "1e-30"], ["beta_disc", "--beta", "1e-30"]])
    def test_roots_at_the_domain_ends(self, args, capsys):
        # mbeta's roots near 0 and near 1, and kernel-level roots far below
        # the solvers' absolute tolerance, come back positive and to 1e-9
        assert main(["radius", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["oracle_root"]
        assert payload["gap"] <= 1e-9 * payload["closed_form"]

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

    def test_csv_matches_committed_output(self, capsys):
        # byte for byte; a change that moves a value on purpose regenerates
        # tests/data/radius_table.csv and names every changed line
        assert main(["radius-table"]) == 0
        expected = (DATA / "radius_table.csv").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


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
        # lune's refined circle-max root misses its closed form 5/12 by
        # 5.3e-15, so a zero tolerance fails it
        assert main(["verify", "--only", "radius/lune", "--tol", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["gap"] > 0.0

    def test_negative_seed_is_usage_error(self):
        # random.Random(-1) would replay seed 1; a fresh process shows the
        # exit code that a shell sees
        code, out, err = run_cli("verify", "--all", "--seed", "-1")
        assert (code, out) == (2, "")
        assert "seed must be a non-negative int, got -1" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_tolerance_is_usage_error(self, tol, capsys):
        assert main(["verify", "sp", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be non-negative" in captured.err


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

    def test_negative_index_is_usage_error(self, tmp_path, capsys):
        # the line would otherwise be dropped and a different series certified
        path = tmp_path / "neg.csv"
        path.write_text("index,re,im\n0,0,0\n1,1,0\n-1,5,0\n")
        assert main(["certify", "--series", str(path), "--t", "0"]) == 2
        assert "negative coefficient index -1" in capsys.readouterr().err

    def test_duplicate_index_is_usage_error(self, tmp_path, capsys):
        # the later line would otherwise overwrite the earlier one
        path = tmp_path / "dup.csv"
        path.write_text("index,re,im\n0,0,0\n1,1,0\n2,0.3,0\n2,0.4,0\n")
        assert main(["certify", "--series", str(path), "--t", "0"]) == 2
        assert "duplicate coefficient index 2" in capsys.readouterr().err

    def test_index_above_max_degree_is_usage_error(self, tmp_path, capsys):
        # a normalised series that would certify, padded by one zero row past
        # the cap: the reader would otherwise allocate max index + 1 terms
        path = tmp_path / "long.csv"
        path.write_text(f"index,re,im\n0,0,0\n1,1,0\n2,0.3,0\n{MAX_DEGREE + 1},0,0\n")
        assert main(["certify", "--series", str(path), "--t", "0"]) == 2
        assert f"coefficient index {MAX_DEGREE + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1,1", "1,abc,0", "x,0,0"],
                             ids=["two-fields", "non-numeric-re", "non-numeric-index"])
    def test_malformed_row_is_usage_error(self, row, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,re,im\n0,0,0\n{row}\n")
        assert main(["certify", "--series", str(path), "--t", "0"]) == 2
        assert f"{path} line 3: '{row}' is not index,re,im" in capsys.readouterr().err

    def test_index_at_max_degree_is_read(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text(f"index,re,im\n0,0,0\n1,1,0\n2,0.3,0\n{MAX_DEGREE},0,0\n")
        assert len(_read_series_csv(str(path)).coeffs) == MAX_DEGREE + 1


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
        from parastar.radii import get_entry

        for entry, target in (
                ("r1_exp", "alpha_exp"), ("r2_sine", "sine"), ("r3_cosh_sqrt", "cosh_sqrt"),
                ("r4_cardioid", "cardioid"), ("r5_asinh", "asinh"), ("r6_sigmoid", "sigmoid"),
                ("r7_nephroid", "nephroid"), ("r8_lemniscate", "lemniscate"),
                ("r9_reverse_lemniscate", "reverse_lemniscate")):
            assert main(["plot", "corollary-figure", "--entry", entry,
                         "--format", "csv"]) == 0
            out = capsys.readouterr().out
            assert f"\n{target}_boundary,0," in out
            assert f"\nimage_r={get_entry(entry).closed_form:.6f},0," in out

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_corollary_figure_needs_64_samples(self, samples, capsys):
        assert main(["plot", "corollary-figure", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at least 64 samples" in captured.err

    def test_region_with_discs(self, capsys):
        assert main(["plot", "region", "--discs", "0,1", "--format", "csv"]) == 0
        curves = {line.split(",")[0] for line in capsys.readouterr().out.splitlines()[2:]}
        assert curves == {"boundary", "tangent_plus", "tangent_minus",
                          "disc_a=0", "disc_a=1"}

    def test_region_with_negative_disc_centre(self, capsys):
        # spaced, "-20,1" would be read as an option; the = form passes it
        assert main(["plot", "region", "--discs=-20,1", "--format", "csv"]) == 0
        curves = {line.split(",")[0] for line in capsys.readouterr().out.splitlines()[2:]}
        assert {"disc_a=-20", "disc_a=1"} <= curves

    def test_image_fills_out_to_boundary(self):
        # every boundary point in a bounded window gets approached by the
        # image circle as r -> 1 (the image sweeps out the whole region)
        import numpy as np
        from parastar.maps import left_parabola

        y = np.linspace(-math.sqrt(7.0), math.sqrt(7.0), 2000)  # window x >= -2
        bound = (3.0 - y**2) / 2.0 + 1j * y

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
            # the package root loads nothing, so import every runtime module
            [sys.executable, "-c",
             "import parastar.cli, parastar.plots, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_growth_checks_load_no_scipy(self):
        # -X importtime lists every module imported, one per stderr line
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "parastar",
                               "verify", "--only", "growth"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 4
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "parastar.oracle" in imported
        assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]
