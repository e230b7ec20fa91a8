import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cloaksim
from cloaksim import cli, modal, specfun
from cloaksim.cli import _specfun_deviations, main
from cloaksim.errors import AccuracyError, ConfigError, DomainError
from cloaksim.geometry import CloakParams
from cloaksim.manifest import RunManifest, write_json
from cloaksim.quadrature import integrate_array

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(args):
    return main([str(a) for a in args])


def _package_env():
    """The environment with this checkout's package first on PYTHONPATH,
    for a fresh interpreter."""
    src = str(Path(cloaksim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


def read_strict_json(path):
    """A JSON file, refusing NaN and Infinity as the CLI's own loader does."""
    return json.loads(path.read_text(), parse_constant=_refuse)


class TestConverge:
    def test_shipped_scenario(self, tmp_path):
        code = run(["converge", "--config", SCENARIOS / "converge_single_mode.json",
                    "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "converge.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,pairing_re,pairing_im,predicted_re,predicted_im,abs_err"
        assert len(lines) >= 4  # header + >= 3 rho rows
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["fitted_rate"] >= 0.8

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["converge", "--config",
                    SCENARIOS / "converge_single_mode.json", "--out", out1]) == 0
        assert run(["converge", "--config",
                    SCENARIOS / "converge_single_mode.json", "--out", out2]) == 0
        for name in ("converge.csv", "summary.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_resonant_config_exits_3_and_names_mode(self, tmp_path, capsys):
        code = run(["converge", "--config",
                    SCENARIOS / "resonant_frequency.json", "--out", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert "n=1" in err

    def test_degree_ten_limit_is_solved(self, tmp_path):
        # |j_10(1)| is 7e-11, but k omega = 1 lies far from its zeros
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["source"][0]["n"] = 10
        doc["phi"]["modes"] = [[10, 0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 0
        rows = np.loadtxt(tmp_path / "converge.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 6) and np.all(np.isfinite(rows))
        summary = read_strict_json(tmp_path / "summary.json")
        assert abs(summary["fitted_rate"] - 1.0) < 0.1

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["converge", "--config", bad, "--out", tmp_path]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["surprise"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 2
        assert "surprise" in capsys.readouterr().err

    @pytest.mark.parametrize("boundary", [
        "f1", [], [{"n": 1, "m": 0, "f1_re": 1.0}]])
    def test_boundary_field_exits_2(self, tmp_path, capsys, boundary):
        # converge solves without boundary data, so it takes none
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["boundary"] = boundary
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["converge", "--config", cfg, "--out", out]) == 2
        assert "unknown fields in converge config: ['boundary']" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_manifest_records_the_solve_truncation(self, tmp_path):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["source"].append({"n": 6, "m": 2, "q_re": 1e-15})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        # the CLI tolerance is far looser than the solve's own
        assert run(["converge", "--config", cfg, "--out", tmp_path,
                    "--tol", "1e-6"]) == 0
        pdoc = doc["params"]
        params = CloakParams(rho=pdoc["rho_list"][-1], omega=pdoc["omega"],
                             r1=pdoc["r1"])
        source = cli.parse_source_table(doc["source"], r1=pdoc["r1"])
        n_max = modal.solve_source(source, None, params).n_max
        assert n_max == 6
        assert RunManifest.read(tmp_path / "manifest.json").n_max == n_max

    @pytest.mark.parametrize("knots", [
        [[0.4, 0.0], [1.0, 1.0], [1.0, 0.5]],
        [[0.4, 0.0], [1.0, 1.0], [0.7, 2.0], [0.7, 1.0]],
        [[2.0, 0.0]],
        [[0.4, 0.0], [True, 0.5], [1.4, 0.3]],  # a boolean is no radius
    ])
    def test_bad_spline_knots_exit_2(self, tmp_path, capsys, knots):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["phi"] = {"family": "spline", "modes": [[1, 0]], "knots": knots}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 2
        assert "error" in capsys.readouterr().err

    def test_spline_without_knots_exits_2_naming_them(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["phi"] = {"family": "spline", "modes": [[1, 0]]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "knots" in err and "Traceback" not in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_source_number_exits_2(self, tmp_path, capsys, token):
        text = (SCENARIOS / "converge_single_mode.json").read_text()
        assert '"q_re": 1.0' in text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace('"q_re": 1.0', f'"q_re": {token}'))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["source"][0].update(q_re="one"), "q_re"),
        (lambda doc: doc["source"][0].update(n="two"), "field n"),
        (lambda doc: doc["phi"].update(modes=[["a", 0]]), "phi modes"),
        (lambda doc: doc["phi"].update(modes=[[1]]), "phi modes"),
        (lambda doc: doc["phi"].update(modes=3), "phi modes"),
        (lambda doc: doc["phi"].update(r_lo=None), "r_lo"),
        (lambda doc: doc["params"].update(omega="fast"), "omega"),
        (lambda doc: doc["params"].update(rho_list=[1e-2, "small"]),
         "rho_list"),
        (lambda doc: doc.update(seed="x"), "seed"),
    ])
    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys, edit,
                                              field):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        edit(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "converge.csv").exists()

    @pytest.mark.parametrize("modes, named", [
        ([], "phi modes must be non-empty"),
        ([[1, 5]], "invalid mode (1,5)"),
        ([[0, 0]], "invalid mode (0,0)"),
        ([[3, 0]], "phi modes [(3, 0)] share no mode"),
    ])
    def test_phi_pairing_nothing_exits_2_before_any_output(
            self, tmp_path, capsys, modes, named):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["phi"]["modes"] = modes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["converge", "--config", cfg, "--out", out]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_single_rho_writes_null_rate(self, tmp_path):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["params"]["rho_list"] = [1e-2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path / "o"]) == 0
        summary = read_strict_json(tmp_path / "o" / "summary.json")
        assert summary["fitted_rate"] is None
        assert summary["rho_final"] == 1e-2

    def test_manifest_round_trip(self, tmp_path):
        run(["converge", "--config", SCENARIOS / "converge_single_mode.json",
             "--out", tmp_path])
        m1 = RunManifest.read(tmp_path / "manifest.json")
        text = m1.to_json()
        m2 = RunManifest.from_json(text)
        assert m1 == m2 and m2.to_json() == text


class TestFields:
    def test_shipped_scenario_spot_row(self, tmp_path):
        code = run(["fields", "--config", SCENARIOS / "fields_single_mode.json",
                    "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "fields.csv").read_text().strip().splitlines()
        assert len(lines) == 6
        # every row and every value column equals the library call
        from cloaksim import fields as f
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        params = CloakParams(rho=0.1, omega=1.0, r1=0.5)
        src = cli.parse_source_table(doc["source"], r1=0.5)
        sol = modal.solve_source(src, None, params)
        for point, line in zip(doc["points"], lines[1:], strict=True):
            sample = f.eval_physical(sol, point)
            row = line.split(",")
            assert [float(v) for v in row[:3]] == point and row[3] == "physical"
            assert [float(v) for v in row[4:]] == [
                part for value in (*sample.E, *sample.H)
                for part in (value.real, value.imag)]

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["fields", "--config", SCENARIOS / "fields_single_mode.json",
             "--out", out1])
        run(["fields", "--config", SCENARIOS / "fields_single_mode.json",
             "--out", out2])
        assert (out1 / "fields.csv").read_bytes() == (out2 / "fields.csv").read_bytes()

    def test_points_from_csv_file(self, tmp_path):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        pts = tmp_path / "pts.csv"
        pts.write_text("0.7,0.0,0.0\n1.2,0.3,0.0\n")
        del doc["points"]
        doc["points_csv"] = str(pts)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path / "o"]) == 0
        lines = (tmp_path / "o" / "fields.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_tol_flag_exits_2(self, tmp_path, capsys):
        code = run(["fields", "--config", SCENARIOS / "fields_single_mode.json",
                    "--out", tmp_path, "--tol", "1e-6"])
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "fields.csv").exists()

    @pytest.mark.parametrize("row", ["0.7,zero,0.0", "0.7,nan,0.0",
                                     "inf,0.0,0.0"])
    def test_bad_points_csv_cell_exits_2(self, tmp_path, capsys, row):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0.7,0.0,0.0\n{row}\n")
        del doc["points"]
        doc["points_csv"] = str(pts)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert f"{pts}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["missing", "not_utf8", 7])
    def test_unreadable_points_csv_exits_2(self, tmp_path, capsys, value):
        # a missing file, a file that is not UTF-8 text, and a number, which
        # open() would take for a file descriptor
        path = value if value == 7 else str(tmp_path / f"{value}.csv")
        if value == "not_utf8":
            (tmp_path / "not_utf8.csv").write_bytes(b"\xff\xfe0.7,0,0\n")
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        del doc["points"]
        doc["points_csv"] = path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run(["fields", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error: points_csv" in err and repr(path) in err
        assert not out.exists()

    def test_non_numeric_fields_param_exits_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["params"]["rho"] = "tiny"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path]) == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [
        [[1.2, 0.1]],                 # two coordinates
        [["a", 1.2, 0.1]],            # non-numeric coordinate
        [1.2, 0.1, 0.3],              # one point, not a list of points
        [[[1.2, 0.1, 0.3]]],          # nested one level too deep
        [[True, 0.0, 0.7]],           # a boolean is no coordinate
    ])
    def test_malformed_inline_points_exit_2(self, tmp_path, capsys, points):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["points"] = points
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error: points[0]" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fields.csv").exists()

    @pytest.mark.parametrize("inline", [True, False])
    def test_no_points_exit_2_before_any_output(self, tmp_path, capsys,
                                                inline):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        if inline:
            doc["points"] = []
        else:
            pts = tmp_path / "pts.csv"
            pts.write_text("# x,y,z\n\n")
            del doc["points"]
            doc["points_csv"] = str(pts)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["fields", "--config", cfg, "--out", out]) == 2
        assert "points must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_points_and_csv_together_rejected(self, tmp_path):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["points_csv"] = "whatever.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path]) == 2


class TestHalfspace:
    def test_shipped_scenario_unimodular_rows(self, tmp_path):
        code = run(["halfspace", "--config", SCENARIOS / "halfspace_sweep.json",
                    "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "halfspace.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            cells = [float(v) for v in line.split(",")]
            h_sc = complex(cells[3], cells[4])
            assert abs(abs(h_sc) - 1.0) < 1e-13
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["transmitted_mass_exponent"] - 2.0) < 0.1

    @pytest.mark.parametrize("key, value", [("kz", "half"),
                                            ("rho_list", [0.1, None]),
                                            ("hin_re", [1.0])])
    def test_non_numeric_value_exits_2(self, tmp_path, capsys, key, value):
        doc = json.loads((SCENARIOS / "halfspace_sweep.json").read_text())
        doc[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["halfspace", "--config", cfg, "--out", tmp_path]) == 2
        assert key in capsys.readouterr().err

    def test_single_rho_writes_null_exponent(self, tmp_path):
        doc = json.loads((SCENARIOS / "halfspace_sweep.json").read_text())
        doc["rho_list"] = doc["rho_list"][:1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["halfspace", "--config", cfg, "--out", tmp_path]) == 0
        summary = read_strict_json(tmp_path / "summary.json")
        assert summary == {"transmitted_mass_exponent": None}

    @pytest.mark.parametrize("halfwidth", [0, -1.0])
    def test_halfwidth_not_above_0_exits_2_before_any_output(
            self, tmp_path, capsys, halfwidth):
        doc = json.loads((SCENARIOS / "halfspace_sweep.json").read_text())
        doc["pairing_halfwidth"] = halfwidth
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["halfspace", "--config", cfg, "--out", out]) == 2
        assert ("config field pairing_halfwidth must be above 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_empty_rho_list_exits_2_before_any_output(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "halfspace_sweep.json").read_text())
        doc["rho_list"] = []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["halfspace", "--config", cfg, "--out", out]) == 2
        assert "rho_list must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["halfspace", "--config", SCENARIOS / "halfspace_sweep.json",
             "--out", out1])
        run(["halfspace", "--config", SCENARIOS / "halfspace_sweep.json",
             "--out", out2])
        assert (out1 / "halfspace.csv").read_bytes() == (out2 / "halfspace.csv").read_bytes()


class TestCheckSpecfun:
    def test_default_grid_passes(self, tmp_path):
        code = run(["check-specfun", "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "specfun_report.json").read_text())
        assert report["pass"] is True
        assert report["max_wronskian_deviation"] < 1e-11
        assert report["max_cross_product_deviation"] < 1e-11

    def test_custom_grid_config(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"n_max": 20, "t_lo": 0.5, "t_hi": 10.0,
                                   "t_count": 10}))
        assert run(["check-specfun", "--config", cfg, "--out", tmp_path]) == 0

    def test_non_numeric_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"n_max": "sixty"}))
        assert run(["check-specfun", "--config", cfg, "--out", tmp_path]) == 2
        assert "n_max" in capsys.readouterr().err

    # no argument at all would pass the identity checks vacuously
    @pytest.mark.parametrize("t_count", [0, -3])
    def test_t_count_below_one_exits_2_before_any_output(self, tmp_path,
                                                         capsys, t_count):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_count": t_count}))
        out = tmp_path / "out"
        assert run(["check-specfun", "--config", cfg, "--out", out]) == 2
        assert "t_count" in capsys.readouterr().err
        assert not out.exists()

    def test_single_argument_grid_runs(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"n_max": 10, "t_lo": 1.0, "t_hi": 1.0,
                                   "t_count": 1}))
        assert run(["check-specfun", "--config", cfg, "--out", tmp_path]) == 0
        report = read_strict_json(tmp_path / "specfun_report.json")
        assert report["pass"] is True and report["grid"]["t_count"] == 1

    def test_unreachable_threshold_exits_4(self, tmp_path):
        code = run(["check-specfun", "--out", tmp_path, "--tol", "1e-18"])
        assert code == 4
        report = json.loads((tmp_path / "specfun_report.json").read_text())
        assert report["pass"] is False

    # the kernel itself overflows at these arguments (its warnings are
    # expected); a NaN or infinite deviation must fail the report
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t_lo, nulls", [
        (1e-300, ["max_wronskian_deviation", "max_cross_product_deviation",
                  "max_recurrence_relative_deviation"]),
        (1e-150, ["max_wronskian_deviation", "max_cross_product_deviation"])])
    def test_tiny_arguments_fail(self, tmp_path, t_lo, nulls):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_lo": t_lo, "t_hi": 1.0, "t_count": 3,
                                   "n_max": 5}))
        code = run(["check-specfun", "--config", cfg, "--out", tmp_path])
        assert code == 4
        report = read_strict_json(tmp_path / "specfun_report.json")
        assert report["pass"] is False
        for key in nulls:
            assert report[key] is None, key

    def test_cross_product_stays_finite_at_high_order(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_lo": 1e-8, "t_hi": 50, "t_count": 40,
                                   "n_max": 200}))
        assert run(["check-specfun", "--config", cfg, "--out", tmp_path]) == 4
        report = read_strict_json(tmp_path / "specfun_report.json")
        assert 1e-5 < report["max_cross_product_deviation"] < 1e-3

    def test_deviations_match_the_scalar_ladder(self):
        table = specfun.bessel_table(30, np.linspace(0.2, 30.0, 12))
        worst = [0.0, 0.0, 0.0]
        for i, t in enumerate(table.t.tolist()):
            lad = table.column(i)
            for n in range(31):
                j, y = (lad.jn(n).to_complex().real,
                        lad.yn(n).to_complex().real)
                jp = lad.jn(n - 1).to_complex().real - (n + 1) / t * j
                yp = lad.yn(n - 1).to_complex().real - (n + 1) / t * y
                cross = (lad.riccati_j(n) * lad.hn(n)
                         - lad.riccati_h(n) * lad.jn(n)).to_complex()
                devs = [abs(t * t * (j * yp - jp * y) - 1.0),
                        abs(cross + 1j / t), 0.0]
                if 1 <= n < 30:
                    jm = lad.jn(n - 1).to_complex().real
                    jp1 = lad.jn(n + 1).to_complex().real
                    devs[2] = abs(jm + jp1 - (2 * n + 1) / t * j) / max(
                        abs(jm), abs(jp1), abs(j) / t)
                worst = [max(w, d) for w, d in zip(worst, devs)]
        got = _specfun_deviations(table)
        # the maxima are rounding noise; they agree to a few units of 1e-16
        assert got == pytest.approx(worst, rel=0.0, abs=2e-15)


class TestDocumentedExitCodes:
    """Each error type of the CLI maps to its documented exit code."""

    @pytest.mark.parametrize("command, scenario", [
        ("converge", "converge_single_mode.json"),
        ("halfspace", "halfspace_sweep.json")])
    def test_unreachable_tolerance_exits_4(self, tmp_path, capsys, command,
                                           scenario):
        assert run([command, "--config", SCENARIOS / scenario, "--out",
                    tmp_path, "--tol", "1e-30"]) == 4
        assert "did not converge to tol=1e-30" in capsys.readouterr().err

    def test_field_point_on_the_interface_exits_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["points"] = [[1.0, 0.0, 0.0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path]) == 2
        assert "exactly on the interface" in capsys.readouterr().err

    @pytest.mark.parametrize("command, scenario", [
        ("converge", "converge_single_mode.json"),
        ("fields", "fields_single_mode.json")])
    def test_degree_above_the_cap_exits_2(self, tmp_path, capsys, command,
                                          scenario):
        doc = json.loads((SCENARIOS / scenario).read_text())
        doc["source"].append({"n": specfun.N_CAP + 1, "m": 0, "q_re": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run([command, "--config", cfg, "--out", tmp_path]) == 2
        assert "exceeds supported cap 200" in capsys.readouterr().err

    def test_argument_above_the_cap_exits_2(self, tmp_path):
        # in a subprocess under a timeout, so a lost cap fails the test
        # instead of hanging it in a recurrence of about 2e12 steps
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["params"]["omega"] = 1e12
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = subprocess.run(
            [sys.executable, "-m", "cloaksim", "fields", "--config", str(cfg),
             "--out", str(tmp_path)],
            env=_package_env(), capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "exceeds supported cap" in out.stderr


class TestTolerance:
    """--tol and quadrature.tol are finite numbers above 0; anything else
    exits 2 naming it, before any output is written."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "0", "-1e-9"])
    @pytest.mark.parametrize("command, scenario", [
        ("converge", "converge_single_mode.json"),
        ("halfspace", "halfspace_sweep.json"),
        ("check-specfun", None)])
    def test_bad_flag_exits_2_before_any_output(self, tmp_path, capsys,
                                                token, command, scenario):
        config = [] if scenario is None else ["--config", SCENARIOS / scenario]
        out = tmp_path / "out"
        assert run([command, *config, "--out", out, f"--tol={token}"]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, 0.0, -1e-9, "nan", "abc", None])
    def test_bad_config_tolerance_exits_2_before_any_output(
            self, tmp_path, capsys, value):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["quadrature"]["tol"] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["converge", "--config", cfg, "--out", out]) == 2
        assert "quadrature field tol" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_tolerance_is_a_domain_error(self):
        with pytest.raises(DomainError, match="tol"):
            integrate_array(np.cos, [0.0, 1.0], tol=math.nan)
        # a zero tolerance is accepted: it refines to the cap, where the
        # sqrt kink at 0 keeps successive levels apart
        with pytest.raises(AccuracyError):
            integrate_array(np.sqrt, [0.0, 1.0], tol=0.0, max_points=64)


class TestIntegerFields:
    """Degrees, orders, counts and seeds are integers: a non-integral number
    or a JSON boolean there exits 2 naming the field, before any output is
    written; an integral float such as 2.0 is accepted.  A boolean is no
    number in a float field either."""

    @staticmethod
    def _run(tmp_path, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        return run([command, "--config", cfg, "--out", out]), out

    @pytest.mark.parametrize("value", [1.6, 0.5, True, False])
    @pytest.mark.parametrize("edit, field", [
        (lambda doc, v: doc["source"][0].update(n=v), "source row field n"),
        (lambda doc, v: doc["source"][0].update(m=v), "source row field m"),
        (lambda doc, v: doc["phi"].update(modes=[[v, 0]]), "phi modes entry"),
        (lambda doc, v: doc["phi"].update(modes=[[1, v]]), "phi modes entry"),
        (lambda doc, v: doc.update(seed=v), "config field seed"),
    ])
    def test_converge_exits_2_before_any_output(self, tmp_path, capsys,
                                                edit, field, value):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        edit(doc, value)
        code, out = self._run(tmp_path, "converge", doc)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n", "m"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_boundary_row_exits_2_before_any_output(self, tmp_path, capsys,
                                                    key, value):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["boundary"] = [{"n": 1, "m": 0, "f1_re": 1.0, key: value}]
        code, out = self._run(tmp_path, "fields", doc)
        assert code == 2
        assert f"boundary row field {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, field", [
        ({"n_max": 5.9, "t_count": 4}, "n_max"),
        ({"n_max": 5, "t_count": 4.7}, "t_count"),
        ({"n_max": True}, "n_max"),
        ({"t_count": True}, "t_count"),
        ({"seed": 0.5}, "seed"),
    ])
    def test_check_specfun_exits_2_before_any_output(self, tmp_path, capsys,
                                                     grid, field):
        code, out = self._run(tmp_path, "check-specfun", grid)
        assert code == 2
        assert f"config field {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["params"].update(omega=True), "omega"),
        (lambda doc: doc["params"].update(rho_list=[1e-2, False]), "rho_list"),
        (lambda doc: doc["source"][0].update(q_re=True), "q_re"),
    ])
    def test_boolean_in_a_float_field_exits_2(self, tmp_path, capsys, edit,
                                              field):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        edit(doc)
        code, out = self._run(tmp_path, "converge", doc)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_are_accepted(self, tmp_path):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["source"][0].update(n=1.0, m=0.0)
        doc["phi"]["modes"] = [[1.0, 0.0]]
        doc["seed"] = 2.0
        code, out = self._run(tmp_path, "converge", doc)
        assert code == 0
        reference = tmp_path / "reference"
        assert run(["converge", "--config",
                    SCENARIOS / "converge_single_mode.json",
                    "--out", reference]) == 0
        assert ((out / "converge.csv").read_bytes()
                == (reference / "converge.csv").read_bytes())

        grid = {"n_max": 5.0, "t_lo": 0.5, "t_hi": 2.0, "t_count": 3.0}
        code, out = self._run(tmp_path, "check-specfun", grid)
        assert code == 0
        report = read_strict_json(out / "specfun_report.json")
        assert report["grid"]["n_max"] == 5 and report["grid"]["t_count"] == 3

    def test_library_values(self):
        assert cli.config_number(2.0, "k", int) == 2
        assert type(cli.config_number(2.0, "k", int)) is int
        assert cli.config_number(2 ** 60 + 1, "k", int) == 2 ** 60 + 1
        assert cli.config_number("7", "k", int) == 7
        assert cli.config_number(3, "x") == 3.0
        for value, message in [(1.6, "must be an integer"),
                               (True, "must be a number"),
                               ("5.5", "must be an integer"),
                               (math.inf, "must be finite")]:
            with pytest.raises(ConfigError, match=f"k {message}"):
                cli.config_number(value, "k", int)
        with pytest.raises(ConfigError, match="x must be a number"):
            cli.config_number(False, "x")


class TestWriteJson:
    def test_layout(self, tmp_path):
        write_json(tmp_path / "doc.json", {"b": 1.5, "a": None})
        assert (tmp_path / "doc.json").read_text() == (
            '{\n  "a": null,\n  "b": 1.5\n}\n')

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "doc.json", {"rate": value})


class TestStartup:
    def test_jobs_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["check-specfun", "--out", tmp_path, "--jobs", "2"])
        assert err.value.code == 2

    def test_cli_import_leaves_scipy_unloaded(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, cloaksim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=_package_env(), capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
