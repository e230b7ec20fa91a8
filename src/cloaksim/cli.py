"""Command-line front end: scenario runs that emit CSV/JSON artifacts.

Subcommands:
    converge       regularisation sweep of the interface pairing
    fields         pointwise field samples on a point set
    halfspace      plane-wave half-space sweep
    check-specfun  radial-function identity grids, pass/fail report

Every run takes a JSON config (check-specfun has a built-in default) and
writes its outputs plus a reproducibility manifest into --out.  Exit codes:
0 success, 2 config error (an --out that cannot be written too),
3 inadmissible frequency (resonant mode), 4 requested accuracy not reached.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, fields, halfspace, modal, specfun, weak_limit
from .errors import AccuracyError, CloakSimError, ConfigError, ResonanceError
from .geometry import CloakParams
from .manifest import RunManifest, write_csv, write_json
from .weak_limit import RadialTestFunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESONANCE = 3
EXIT_ACCURACY = 4


def _reject_non_finite(token):
    raise ConfigError(f"config numbers must be finite, got {token}")


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        _reject_non_finite(token)
    return value


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_non_finite,
                             parse_float=_finite_float)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config {str(path)!r} cannot be read: "
                          f"{exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config {str(path)!r} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def config_number(value, field, kind=float):
    """A configuration value as a finite float, or as an int when ``kind``
    is int.

    Raises:
        ConfigError: naming ``field``, when the value is a JSON boolean, not
            a finite number (strings that spell one are accepted, as float()
            does), or, for an int, not integral (2.0 is, 1.6 is not).
    """
    if isinstance(value, bool):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if kind is int and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{field} must be an integer, got {value!r}")
        return int(number)
    return number


def _num(doc, key, where, default=None, kind=float):
    """doc[key], or default when absent, as a finite number (ConfigError
    naming the field otherwise)."""
    return config_number(doc.get(key, default), f"{where} field {key}", kind)


def _positive(value, where):
    """value as a finite number above 0 (ConfigError naming where)."""
    tol = config_number(value, where)
    if tol <= 0.0:
        raise ConfigError(f"{where} must be above 0, got {value!r}")
    return tol


def _num_list(values, where):
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return [config_number(v, f"{where} entry") for v in values]


def _numbers(cells, size, where, kind=float):
    """cells as a tuple of ``size`` config numbers (ConfigError naming where
    otherwise)."""
    if not isinstance(cells, (list, tuple)) or len(cells) != size:
        raise ConfigError(f"{where}: expected {size} values, got {cells!r}")
    return tuple(config_number(v, where, kind) for v in cells)


def _num_tuples(values, size, where, kind=float):
    """values as a list of ``_numbers`` tuples named "<where> entry"."""
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of {size}-number lists")
    return [_numbers(v, size, f"{where} entry", kind) for v in values]


def _finite_or_none(x):  # JSON null for NaN or inf, e.g. an unfitted rate
    return x if math.isfinite(x) else None


def _seed(doc):
    return _num(doc, "seed", "config", 0, int)


def _require_keys(doc, required, optional, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where} missing fields: {sorted(missing)}")


def _parse_table(rows, names, kind):
    """{(n, m): complex values of names} from rows {n, m, <name>_re/_im}."""
    if not isinstance(rows, list):
        raise ConfigError(f"{kind} table must be a list of row objects")
    where, entries = f"{kind} row", {}
    value_keys = {f"{x}_{part}" for x in names for part in ("re", "im")}
    for row in rows:
        _require_keys(row, {"n", "m"}, value_keys, where)
        n, m = _num(row, "n", where, kind=int), _num(row, "m", where, kind=int)
        if (n, m) in entries:
            raise ConfigError(f"duplicate mode ({n},{m}) in {kind} table")
        entries[(n, m)] = tuple(complex(_num(row, f"{x}_re", where, 0.0),
                                        _num(row, f"{x}_im", where, 0.0))
                                for x in names)
    return entries


def parse_source_table(rows, r1: float) -> modal.SourceCoeffs:
    """Source table from JSON rows {n, m, p_re, p_im, q_re, q_im}."""
    return modal.SourceCoeffs(_parse_table(rows, ("p", "q"), "source"), r1)


def parse_boundary_table(rows) -> modal.BoundaryCoeffs:
    """Boundary table from JSON rows {n, m, f1_re, f1_im, f2_re, f2_im}."""
    return modal.BoundaryCoeffs(_parse_table(rows, ("f1", "f2"), "boundary"))


def read_points_csv(path):
    """Points from a CSV file with one x,y,z triple per row.

    Raises:
        ConfigError: naming points_csv and the path, for a file that cannot
            be read as UTF-8 text; naming file:line, for a row that is not
            three finite numbers.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(enumerate(map(str.strip, fh), 1))
    except OSError as exc:
        raise ConfigError(f"points_csv {str(path)!r} cannot be read: "
                          f"{exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"points_csv {str(path)!r} is not UTF-8 text"
                          ) from None
    return [_numbers(line.split(","), 3, f"{path}:{line_no}")
            for line_no, line in lines if line and not line.startswith("#")]


def _parse_phi(doc):
    _require_keys(doc, {"family", "modes"},
                  {"r_lo", "r_hi", "amplitude", "knots"}, "phi")
    modes = _num_tuples(doc["modes"], 2, "phi modes", int)
    if not modes:
        raise ConfigError("phi modes must be non-empty")
    if doc["family"] == "bump":
        return RadialTestFunction.polynomial_bump(
            modes, _num(doc, "r_lo", "phi"), _num(doc, "r_hi", "phi"),
            _num(doc, "amplitude", "phi", 1.0))
    if doc["family"] == "spline":
        if "knots" not in doc:
            raise ConfigError("phi missing fields: ['knots'] (the spline "
                              "family needs them)")
        return RadialTestFunction.cubic_spline(
            modes, _num_tuples(doc["knots"], 2, "phi knots"))
    raise ConfigError(f"unknown phi family: {doc['family']!r}")


def _parse_cloak_params(doc, rho):
    return CloakParams(rho=rho, omega=_num(doc, "omega", "params"),
                       eps0=_num(doc, "eps0", "params", 1.0),
                       mu0=_num(doc, "mu0", "params", 1.0),
                       r1=_num(doc, "r1", "params"))


# -- converge -----------------------------------------------------------------


def cmd_converge(config_path, out_dir, tol):
    doc = _load_config(config_path)
    _require_keys(doc, {"scenario", "params", "source", "phi"},
                  {"quadrature", "seed"}, "converge config")
    seed = _seed(doc)
    pdoc = doc["params"]
    _require_keys(pdoc, {"omega", "r1", "rho_list"}, {"eps0", "mu0"},
                  "converge params")
    rho_list = _num_list(pdoc["rho_list"], "params rho_list")
    if not rho_list:
        raise ConfigError("rho_list must be non-empty")
    quad = doc.get("quadrature", {})
    _require_keys(quad, set(), {"tol"}, "quadrature")
    configured = _positive(quad.get("tol", 1e-9), "quadrature field tol")
    qtol = configured if tol is None else tol

    # every rho's params are checked before any work
    params_list = [_parse_cloak_params(pdoc, rho) for rho in rho_list]
    params = params_list[0]
    source = parse_source_table(doc["source"], r1=params.r1)
    modal.check_decay_certificate(source, params)
    phi = _parse_phi(doc["phi"])
    if not phi.profiles.keys() & source.entries.keys():
        raise ConfigError(f"phi modes {sorted(phi.profiles)} share no mode "
                          "with the source table")

    rows, rate = weak_limit.convergence_study(source, phi, params_list,
                                              tol=qtol)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "converge.csv",
              ["rho", "pairing_re", "pairing_im", "predicted_re",
               "predicted_im", "abs_err"],
              [[r["rho"], r["pairing"].real, r["pairing"].imag,
                r["predicted"].real, r["predicted"].imag, r["abs_err"]]
               for r in rows])
    write_json(out / "summary.json", {"fitted_rate": _finite_or_none(rate),
                                      "abs_err_final": rows[-1]["abs_err"],
                                      "rho_final": rows[-1]["rho"]})
    RunManifest(scenario=doc["scenario"], command="converge", params=pdoc,
                source=doc["source"], phi=doc["phi"], quadrature={"tol": qtol},
                n_max=max(r["n_max"] for r in rows),
                seed=seed).write(out / "manifest.json")
    return EXIT_OK


# -- fields ---------------------------------------------------------------------


def cmd_fields(config_path, out_dir, tol):
    if tol is not None:
        raise ConfigError("fields has no tolerance to override; drop --tol")
    doc = _load_config(config_path)
    _require_keys(doc, {"scenario", "params", "source", "space"},
                  {"points", "points_csv", "boundary", "seed"}, "fields config")
    seed = _seed(doc)
    pdoc = doc["params"]
    _require_keys(pdoc, {"omega", "r1", "rho"}, {"eps0", "mu0"}, "fields params")
    params = _parse_cloak_params(pdoc, _num(pdoc, "rho", "params"))
    source = parse_source_table(doc["source"], r1=params.r1)
    boundary = parse_boundary_table(doc.get("boundary", []))
    space = doc["space"]
    if space not in ("virtual", "physical"):
        raise ConfigError(f"space must be 'virtual' or 'physical', got {space!r}")
    if ("points" in doc) == ("points_csv" in doc):
        raise ConfigError("provide exactly one of 'points' or 'points_csv'")
    if "points" in doc:
        if not isinstance(doc["points"], list):
            raise ConfigError("points must be a list of [x, y, z] triples")
        points = [_numbers(p, 3, f"points[{i}]")
                  for i, p in enumerate(doc["points"])]
    else:
        # a number would be opened as a file descriptor
        if not isinstance(doc["points_csv"], str):
            raise ConfigError("points_csv must be a file path, got "
                              f"{doc['points_csv']!r}")
        points = read_points_csv(doc["points_csv"])
    if not points:
        raise ConfigError("points must be non-empty")
    solution = modal.solve_source(source, boundary, params)
    evaluate = (fields.eval_virtual_exterior if space == "virtual"
                else fields.eval_physical)
    samples = [evaluate(solution, p) for p in points]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fields.write_samples_csv(out / "fields.csv", samples)
    RunManifest(scenario=doc["scenario"], command="fields", params=pdoc,
                source=doc["source"], boundary=doc.get("boundary", []),
                n_max=solution.n_max,
                seed=seed).write(out / "manifest.json")
    return EXIT_OK


# -- halfspace -------------------------------------------------------------------


def cmd_halfspace(config_path, out_dir, tol):
    doc = _load_config(config_path)
    _require_keys(doc, {"scenario", "omega", "kz", "rho_list", "phi"},
                  {"hin_re", "hin_im", "pairing_halfwidth", "seed"},
                  "halfspace config")
    seed = _seed(doc)
    phi_doc = doc["phi"]
    _require_keys(phi_doc, {"x_lo", "x_hi"}, {"amplitude"}, "halfspace phi")
    phi = halfspace.TestFunction1D(_num(phi_doc, "x_lo", "phi"),
                                   _num(phi_doc, "x_hi", "phi"),
                                   _num(phi_doc, "amplitude", "phi", 1.0))
    hin = complex(_num(doc, "hin_re", "config", 1.0),
                  _num(doc, "hin_im", "config", 0.0))
    halfwidth = _positive(doc.get("pairing_halfwidth", 2.0),
                          "config field pairing_halfwidth")
    qtol = tol if tol is not None else 1e-10
    omega, kz = _num(doc, "omega", "config"), _num(doc, "kz", "config")
    rho_list = _num_list(doc["rho_list"], "config rho_list")
    if not rho_list:
        raise ConfigError("rho_list must be non-empty")
    params_list = [halfspace.HalfspaceParams(omega=omega, kz=kz, rho=rho,
                                             hin=hin)
                   for rho in rho_list]
    rows, exponent = halfspace.limit_study(params_list, phi, halfwidth, tol=qtol)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "halfspace.csv",
              ["rho", "h_plus_re", "h_plus_im", "h_sc_re", "h_sc_im",
               "transmitted_mass_re", "transmitted_mass_im",
               "reflected_pairing_re", "reflected_pairing_im"],
              [[r["rho"], r["h_plus"].real, r["h_plus"].imag,
                r["h_sc"].real, r["h_sc"].imag,
                r["transmitted_mass"].real, r["transmitted_mass"].imag,
                r["reflected_pairing"].real, r["reflected_pairing"].imag]
               for r in rows])
    write_json(out / "summary.json",
               {"transmitted_mass_exponent": _finite_or_none(exponent)})
    RunManifest(scenario=doc["scenario"], command="halfspace",
                params={"omega": doc["omega"], "kz": doc["kz"],
                        "rho_list": doc["rho_list"], "hin_re": hin.real,
                        "hin_im": hin.imag},
                phi={"x_lo": phi.x_lo, "x_hi": phi.x_hi,
                     "amplitude": phi.amplitude},
                quadrature={"tol": qtol, "pairing_halfwidth": halfwidth},
                seed=seed).write(out / "manifest.json")
    return EXIT_OK


# -- check-specfun ----------------------------------------------------------------


def _specfun_deviations(table):
    """Largest deviations over a BesselTable from the Wronskian
    t^2 (j_n y_{n-1} - j_{n-1} y_n) = 1 and from the recurrence
    j_{n-1} + j_{n+1} = (2n+1)/t j_n in units of its largest term; NaN if
    either is NaN.  Each product is exponentiated from the sum of its logs:
    finite where a row leaves double range, it rounds at 1e-16 times that."""
    j_log, j_sign = table.j_log, table.j_sign  # orders -1..n_max
    y_log, y_sign = table.y_log, table.y_sign
    log_t, n = np.log(table.t), np.arange(1, table.n_max)[:, None]
    with np.errstate(all="ignore"):
        # t^2 j_n y_{n-1} and t^2 j_{n-1} y_n, for n = 0..n_max
        first = np.exp(2 * log_t + j_log[1:] + y_log[:-1])
        second = np.exp(2 * log_t + j_log[:-1] + y_log[1:])
        wronskian = np.abs(j_sign[1:] * y_sign[:-1] * first
                           - j_sign[:-1] * y_sign[1:] * second - 1.0)
        # j at orders n - 1 and n + 1, and (2n+1)/t j_n, for n = 1..n_max - 1
        logs = (j_log[1:-2], j_log[3:],
                np.log(2 * n + 1) - log_t + j_log[2:-1])
        peak = np.maximum.reduce(logs)
        peak[peak == -np.inf] = 0.0  # three exact zeros read 0
        lo, up, mid = (np.exp(x - peak) for x in logs)
        recurrence = np.abs(j_sign[1:-2] * lo + j_sign[3:] * up
                            - j_sign[2:-1] * mid)
    return tuple(float(np.max(d, initial=0.0))
                 for d in (wronskian, recurrence))


def cmd_check_specfun(config_path, out_dir, tol):
    if config_path is not None:
        doc = _load_config(config_path)
        _require_keys(doc, set(), {"scenario", "n_max", "t_lo", "t_hi",
                                   "t_count", "seed"}, "check-specfun config")
    else:
        doc = {}
    seed = _seed(doc)
    n_max = _num(doc, "n_max", "config", 60, int)
    t_lo = _num(doc, "t_lo", "config", 0.1)
    t_hi = _num(doc, "t_hi", "config", 50.0)
    t_count = _num(doc, "t_count", "config", 40, int)
    if t_count < 1:
        raise ConfigError(f"config field t_count must be at least 1, "
                          f"got {t_count}")
    threshold = tol if tol is not None else 1e-11

    worst_wronskian, worst_recurrence = _specfun_deviations(
        specfun.bessel_table(n_max, np.linspace(t_lo, t_hi, t_count)))
    passed = worst_wronskian < threshold and worst_recurrence < 1e-10
    report = {
        "pass": bool(passed),
        "threshold": threshold,
        "max_wronskian_deviation": _finite_or_none(worst_wronskian),
        "max_recurrence_relative_deviation": _finite_or_none(worst_recurrence),
        "grid": {"n_max": n_max, "t_lo": t_lo, "t_hi": t_hi,
                 "t_count": t_count},
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "specfun_report.json", report)
    RunManifest(scenario=str(doc.get("scenario", "specfun-default-grid")),
                command="check-specfun", params=report["grid"],
                quadrature={"tol": threshold},
                seed=seed).write(out / "manifest.json")
    return EXIT_OK if passed else EXIT_ACCURACY


# -- entry point -------------------------------------------------------------------


_COMMANDS = {
    "converge": (cmd_converge, True),
    "fields": (cmd_fields, True),
    "halfspace": (cmd_halfspace, True),
    "check-specfun": (cmd_check_specfun, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cloaksim",
        description="spectral cloak simulator: scenario runs and checks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, config_required) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=config_required, default=None,
                       help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the configured tolerance")
    return parser


def _check_out(out_dir) -> None:
    """ConfigError for an --out that cannot become a directory: an existing
    file, or a path below one.  Nothing is created."""
    path = Path(out_dir)
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"--out {str(out_dir)!r}: {str(part)!r} "
                                  "is not a directory")
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func = _COMMANDS[args.command][0]
    try:
        tol = None if args.tol is None else _positive(args.tol, "--tol")
        _check_out(args.out)
        return func(args.config, args.out, tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # configs and point files raise ConfigError
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResonanceError as exc:
        print(f"inadmissible frequency: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except AccuracyError as exc:
        print(f"accuracy not reached: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except CloakSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
