import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cloaksim
from cloaksim import modal, specfun
from cloaksim.cli import _specfun_deviations, main
from cloaksim.geometry import CloakParams
from cloaksim.manifest import RunManifest, write_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(args):
    return main([str(a) for a in args])


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
        source = modal.parse_source_table(doc["source"], r1=pdoc["r1"])
        n_max = modal.solve_source(source, None, params).n_max
        assert n_max == 6
        assert RunManifest.read(tmp_path / "manifest.json").n_max == n_max

    @pytest.mark.parametrize("knots", [
        [[0.4, 0.0], [1.0, 1.0], [1.0, 0.5]],
        [[0.4, 0.0], [1.0, 1.0], [0.7, 2.0], [0.7, 1.0]],
        [[2.0, 0.0]],
    ])
    def test_bad_spline_knots_exit_2(self, tmp_path, capsys, knots):
        doc = json.loads((SCENARIOS / "converge_single_mode.json").read_text())
        doc["phi"] = {"family": "spline", "modes": [[1, 0]], "knots": knots}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["converge", "--config", cfg, "--out", tmp_path]) == 2
        assert "error" in capsys.readouterr().err

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
        # spot check: first row equals the library call
        from cloaksim import fields as f, modal
        from cloaksim.geometry import CloakParams
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        params = CloakParams(rho=0.1, omega=1.0, r1=0.5)
        src = modal.parse_source_table(doc["source"], r1=0.5)
        sol = modal.solve_source(src, None, params)
        sample = f.eval_physical(sol, doc["points"][0])
        row = lines[1].split(",")
        assert float(row[4]) == sample.E[0].real
        assert float(row[5]) == sample.E[0].imag

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
    ])
    def test_malformed_inline_points_exit_2(self, tmp_path, capsys, points):
        doc = json.loads((SCENARIOS / "fields_single_mode.json").read_text())
        doc["points"] = points
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["fields", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error: points[0]" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fields.csv").exists()

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
        src = str(Path(cloaksim.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, cloaksim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
