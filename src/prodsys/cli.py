"""Command-line interface for simulation, estimation and inference runs.

One YAML config file per run plus a small set of override flags; flag
beats file beats default.  Every config value is type-checked before any
data is read.  Every command is a pure function of its inputs, config and
seed, so re-running writes byte-identical files.  All numeric output
carries 17 significant digits.

Exit codes: 0 success, 2 config error (including a simulation the static
input solver cannot clear), 3 data error, 4 estimation non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import types

import numpy as np
import yaml

from .bootstrap import NUMERICAL_FAILURES, BootstrapConfig, pack_parameters, parameter_names, run_bootstrap
from .diagnostics import aggregate_productivity, elasticities, monte_carlo_study
from .panel import FLOAT_FORMAT, PanelDataset, _write_table, load_csv, write_csv, write_prices_csv
from .partialid import GRID_AXES, MomentInequalityConfig, identified_set
from .simulate import CesParams, DgpConfig, generate_panel
from .sieve import SieveEstimate, sieve_estimate
from .translog import PROXIES, EstimateOptions, ProductivityLaws, TranslogParams, estimate

__all__ = ["ConfigError", "DataError", "EstimationError", "main"]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Bad config file or flag value; exit code 2."""


class DataError(Exception):
    """Unreadable or invalid input data; exit code 3."""


class EstimationError(Exception):
    """Estimation did not converge; exit code 4."""


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def _check_keys(mapping: dict, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"{path}: YAML parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    _check_keys(
        raw,
        ("schema", "seed", "threads", "out", "simulate", "estimate", "montecarlo", "bootstrap", "partialid", "report"),
        path,
    )
    version = _integer(raw.get("schema", SCHEMA_VERSION), "schema", 1)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema version {version}; this build reads version {SCHEMA_VERSION}")
    return raw


def _resolve(flag_value, file_value, default):
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        return file_value
    return default


def _section(config: dict, name: str) -> dict:
    section = {} if config.get(name) is None else config[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a mapping")
    return section


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# typed config readers: each maps a wrong kind of value to a ConfigError
# naming its key


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def _numbers(values, path: str, length: int | None = None) -> tuple:
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        size = "" if length is None else f" of length {length}"
        raise ConfigError(f"{path}: expected a list of numbers{size}, got {values!r}")
    return tuple(_number(v, path) for v in values)


def _number_or_numbers(value, path: str, length: int | None = None):
    return _numbers(value, path, length) if isinstance(value, (list, tuple)) else _number(value, path)


def _integer(value, path: str, minimum: int) -> int:
    # YAML and the flags give ints or strings; a float such as 2.5 is refused, not truncated
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    try:
        value = int(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: expected an integer, got {value!r}") from exc
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _positive_int(value, path: str) -> int:
    return _integer(value, path, 1)


def _seed(value, path: str) -> int:
    return _integer(value, path, 0)


def _names(values, path: str) -> tuple:
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise ConfigError(f"{path}: expected a list of column names, got {values!r}")
    return tuple(values)


def _path(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a file path, got {value!r}")
    return value


def _prices(value, path: str):
    """A price CSV path, or a mapping of year to a ratio or ``[ratio_l, ratio_m]``."""
    if not isinstance(value, dict):
        return _path(value, path)
    return {
        _integer(year, f"{path} year", 0): _number_or_numbers(ratio, f"{path}.{year}", 2)
        for year, ratio in value.items()
    }


def _mapping_of(cls, keys):
    """Reader of a mapping of a number for each of ``keys`` into ``cls(**mapping)``."""
    def read(value, path: str):
        values = _typed(value, path, dict.fromkeys(keys, _number))
        if len(values) < len(keys):
            raise ConfigError(f"{path}: missing key(s) {sorted(set(keys) - set(values))}")
        return cls(**values)
    return read


def _typed(section: dict, path: str, readers: dict) -> dict:
    """``section`` with each value through its key's reader (``None``: as is).

    Unknown keys are errors; a null value counts as absent, so its default holds.
    """
    _check_keys(section, readers, path)
    return {
        key: value if readers[key] is None else readers[key](value, f"{path}.{key}")
        for key, value in section.items() if value is not None
    }


#: the technology coefficients a config or a params.csv sets
_BETAS = ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0")
_PANEL = {"data": _path, "prices": _prices, "x_columns": _names, "z_columns": _names}
_ESTIMATOR = {"proxy": None, "instruments": None, "refine": None, "grad_tol": _number, "max_iter": _positive_int}
_DGP = {
    "n": _positive_int, "t_periods": _positive_int, "technology": None,
    "params": _mapping_of(TranslogParams, _BETAS),
    "ces": _mapping_of(CesParams, ("sigma", "nu", "beta_k", "beta_m")),
    "laws": _mapping_of(ProductivityLaws, ("rho_phi_1", "rho_omega_0", "rho_omega_1")),
    "sigma_omega": _number, "sigma_phi": _number, "sigma_eta": _number, "markup": _number,
    **dict.fromkeys(("omega_init_range", "phi_init_range", "k_init_range"), lambda v, p: _numbers(v, p, 2)),
    "iota": lambda v, p: _numbers(v, p, 3),
    "depreciation_rates": _numbers,
    "price_y": _number_or_numbers, "price_l": _number_or_numbers, "price_m": _number_or_numbers,
}


# ---------------------------------------------------------------------------
# config -> domain objects


def _dgp_from_config(section: dict, path: str, seed: int) -> DgpConfig:
    config = DgpConfig(seed=seed, **_typed(section, path, _DGP))
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config


def _estimator_options(section: dict, path: str, args) -> EstimateOptions:
    """Options from the ``_ESTIMATOR`` keys of a typed section; ``material`` means ``materials``."""
    kwargs = {key: section[key] for key in _ESTIMATOR if key in section}
    if getattr(args, "proxy", None) is not None:
        kwargs["proxy"] = args.proxy
    if kwargs.get("proxy") == "material":
        kwargs["proxy"] = "materials"
    options = EstimateOptions(**kwargs)
    try:
        options.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return options


def _load_panel(section: dict, path: str, data_flag=None) -> PanelDataset:
    data = _resolve(data_flag, section.get("data"), None)
    if data is None:
        raise ConfigError(f"{path}.data: no input CSV given (use --data or the config file)")
    try:
        dataset, report = load_csv(
            data,
            x_columns=section.get("x_columns", ()),
            z_columns=section.get("z_columns", ()),
            prices=section.get("prices"),
        )
    except OSError as exc:
        raise DataError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DataError(f"{data}: {exc}") from exc
    print(f"loaded {report.rows_kept} of {report.rows_read} rows from {data}")
    for reason, count in sorted(report.dropped.items()):
        print(f"  dropped {count}: {reason}")
    return dataset


def _run_on_panel(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a ``ValueError`` means the panel cannot support the fit."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output tables


def _read_table(path: str, header: tuple, labels: int) -> dict:
    """``{first labels cells: the other cells as floats}`` of a table a command wrote."""
    table = {}
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            if ",".join(next(rows, [])).strip() != ",".join(header):
                raise DataError(f"{path}: expected header {','.join(header)!r}")
            for cells in rows:
                if len(cells) < 2 and not "".join(cells).strip():  # a blank line, or only spaces
                    continue
                if len(cells) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
                table[tuple(cells[:labels])] = [float(v) for v in cells[labels:]]
    except OSError as exc:
        raise DataError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    except (ValueError, csv.Error) as exc:
        raise DataError(f"{path}: malformed row ({exc})") from exc
    return table


def _param_rows(result, dataset: PanelDataset) -> list[tuple[str, float]]:
    # zip stops at the technology block when the laws are series (laws=None)
    return list(zip(parameter_names(dataset), pack_parameters(result.params, result.laws)))


def _fits(result) -> list:
    """``(name, optimizer record)`` of each fitted block of an estimate, the joint refinement once, as ``system``."""
    # a sieve law of degree one reports the refinement: phi's always, omega's at a degree-one phi
    if isinstance(result, SieveEstimate) and result.degree_phi == 1:
        return ([("step3", result.step3)] if result.degree_omega > 1 else []) + [("system", result.step2)]
    fits = [("step2", result.step2), ("step3", result.step3)]
    if getattr(result, "system", None) is not None:
        fits.append(("system", result.system))
    return fits


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, config: dict) -> int:
    dgp = _dgp_from_config(_section(config, "simulate"), "simulate", args.seed)
    try:
        dataset, truth = generate_panel(dgp, seed=args.seed)
    except NUMERICAL_FAILURES as exc:
        # a valid config whose economy the static input solver cannot clear
        raise ConfigError(f"simulate: {exc}") from exc
    out = _out_dir(args)
    write_csv(dataset, os.path.join(out, "panel.csv"))
    write_prices_csv(dataset, os.path.join(out, "prices.csv"))
    # simulated firms are numbered in generation order, the order of truth's rows
    i, t = dataset.firm, dataset.year - int(np.min(dataset.year))
    _write_table(
        os.path.join(out, "truth.csv"), ("firm_id", "year", "omega", "phi", "eta"),
        [dataset.labels, dataset.year, truth.omega[i, t], truth.phi[i, t], truth.eta[i, t]], "\n",
    )
    print(f"simulated panel: n={dgp.n} firms, T={dgp.t_periods} periods, seed={args.seed}")
    print(f"max static FOC residual: {truth.max_foc_residual:.3e}")
    print(f"wrote panel.csv, prices.csv, truth.csv to {out}")
    return 0


def cmd_estimate(args, config: dict) -> int:
    section = _typed(_section(config, "estimate"), "estimate", {**_PANEL, **_ESTIMATOR, "law": None, "degree": None})
    law = _resolve(args.law, section.get("law"), "parametric")
    if law not in ("parametric", "sieve"):
        raise ConfigError(f"estimate.law: must be parametric or sieve, got {law!r}")
    options = _estimator_options(section, "estimate", args)
    if law == "sieve" and options.refine != "system":
        # the sieve picks its degrees at the refined point
        raise ConfigError(f"estimate.refine: must be system with law sieve, got {options.refine!r}")
    degree = _resolve(args.degree, section.get("degree"), "auto")
    if degree != "auto":
        degree = _positive_int(degree, "estimate.degree")
    dataset = _load_panel(section, "estimate", args.data)
    out = _out_dir(args)

    if law == "sieve":
        result = _run_on_panel(sieve_estimate, dataset, degree=degree, options=options)
        rows = _param_rows(result, dataset)
        rows.extend((f"phi_law_coef[{j}]", v) for j, v in enumerate(result.step2.coef))
        rows.extend((f"omega_law_coef[{j}]", v) for j, v in enumerate(result.step3.coef))
        rows.extend([("degree_phi", float(result.degree_phi)), ("degree_omega", float(result.degree_omega))])
        summary = [f"law: sieve, degrees phi={result.degree_phi} omega={result.degree_omega}"]
    else:
        result = _run_on_panel(estimate, dataset, options)
        rows = _param_rows(result, dataset)
        summary = ["law: parametric"]
    summary += [f"{name} objective {fit.objective:.6e} converged {fit.converged}" for name, fit in _fits(result)]
    lines = summary + ["%-20s %s" % (name, _fmt(value)) for name, value in rows]

    _write_table(os.path.join(out, "params.csv"), ("parameter", "value"), list(zip(*rows)), "\n")
    _write_table(
        os.path.join(out, "latents.csv"), ("firm_id", "year", "phi_hat", "omega_hat", "eta_hat"),
        [dataset.labels, dataset.year, result.phi_hat, result.omega_hat, result.eta_hat], "\n",
    )
    record = elasticities(result.params, dataset.k, dataset.m, dataset.l, result.phi_hat)
    means = "mean elasticities: capital %.6f labor %.6f material %.6f rts %.6f" % (
        float(np.mean(record.capital)), float(np.mean(record.labor)),
        float(np.mean(record.material)), float(np.mean(record.rts)),
    )
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("\n".join([*lines, means, *(f"warning: {w}" for w in result.warnings)]) + "\n")
    print("\n".join(lines))
    for w in result.warnings:
        print("warning:", w, file=sys.stderr)
    print(f"wrote params.csv, latents.csv, report.txt to {out}")
    if not all(fit.converged for _, fit in _fits(result)):
        raise EstimationError("estimation did not converge; see report.txt")
    return 0


def cmd_montecarlo(args, config: dict) -> int:
    section = _typed(
        _section(config, "montecarlo"), "montecarlo",
        {"replications": _positive_int, "dgp": None, "estimator": None},
    )
    replications = _positive_int(_resolve(args.replications, section.get("replications"), 200), "montecarlo.replications")
    dgp = _dgp_from_config(section.get("dgp", {}), "montecarlo.dgp", args.seed)
    if dgp.technology != "translog":
        raise ConfigError(
            f"montecarlo.dgp.technology: the study fits the translog estimator, so it needs translog data, "
            f"got {dgp.technology!r}"
        )
    estimator = _typed(section.get("estimator", {}), "montecarlo.estimator", _ESTIMATOR)
    options = _estimator_options(estimator, "montecarlo.estimator", args)
    out = _out_dir(args)
    try:
        report = monte_carlo_study(dgp, replications, options, seed=args.seed, threads=args.threads)
    except ValueError as exc:
        raise EstimationError(str(exc)) from exc
    with open(os.path.join(out, "mc.csv"), "w") as fh:
        fh.write(report.to_csv())
    text = report.to_text()
    with open(os.path.join(out, "mc.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    print(f"wrote mc.csv, mc.txt to {out}")
    return 0


def cmd_bootstrap(args, config: dict) -> int:
    section = _typed(
        _section(config, "bootstrap"), "bootstrap",
        {**_PANEL, **_ESTIMATOR, "n_reps": _positive_int, "levels": _numbers},
    )
    options = _estimator_options(section, "bootstrap", args)
    boot_config = BootstrapConfig(
        n_reps=_positive_int(_resolve(args.B, section.get("n_reps"), 200), "bootstrap.n_reps"),
        seed=args.seed,
        levels=section.get("levels", BootstrapConfig.levels),
    )
    try:
        boot_config.validate()
    except ValueError as exc:
        raise ConfigError(f"bootstrap: {exc}") from exc
    dataset = _load_panel(section, "bootstrap", args.data)
    out = _out_dir(args)

    point = _run_on_panel(estimate, dataset, options)
    if not all(fit.converged for _, fit in _fits(point)):
        raise EstimationError("point estimation did not converge; bootstrap not run")
    try:
        result = run_bootstrap(dataset, point, boot_config)
    except ValueError as exc:
        raise EstimationError(str(exc)) from exc

    header = ["parameter", "point", "se"]
    columns = [result.names, pack_parameters(point.params, point.laws), result.standard_errors]
    for level in boot_config.levels:
        tag = ("%g" % (100 * level)).replace(".", "_")
        header += [f"lower{tag}", f"upper{tag}"]
        columns += result.intervals[float(level)]
    _write_table(os.path.join(out, "bootstrap.csv"), header, columns, "\n")
    _write_table(os.path.join(out, "draws.csv"), result.names, result.draws.T, "\n")
    print(f"bootstrap: {result.draws.shape[0]} successful replicates, {result.n_failures} failures")
    for j, name in enumerate(result.names):
        print("%-20s se %s" % (name, _fmt(result.standard_errors[j])))
    for w in result.warnings:
        print("warning:", w, file=sys.stderr)
    print(f"wrote bootstrap.csv, draws.csv to {out}")
    return 0


def _parse_grid_flag(text: str) -> dict:
    """``--grid name=low:high:count,...`` read as the config's ``grid`` mapping."""
    spec = {}
    for item in text.split(","):
        try:
            name, bounds = item.split("=")
            low, high, count = bounds.split(":")
        except ValueError as exc:
            raise ConfigError(f"--grid: expected name=low:high:count entries, got {item!r}") from exc
        spec[name] = {"min": low, "max": high, "count": count}
    return _grid(spec, "--grid")


def _grid(value, path: str) -> dict:
    _check_keys(value, GRID_AXES, path)
    grid = {}
    for name, spec in value.items():
        spec = _typed(spec, f"{path}.{name}", {"min": _number, "max": _number, "count": _positive_int})
        if not {"min", "max"} <= set(spec):
            raise ConfigError(f"{path}.{name}: needs min and max")
        grid[name] = np.linspace(spec["min"], spec["max"], spec.get("count", 11))
    return grid


def cmd_partialid(args, config: dict) -> int:
    section = _typed(
        _section(config, "partialid"), "partialid",
        {**_PANEL, "cutoffs": _numbers, "slack": _number, "slack_scale": _number,
         "propensity_degree": _positive_int, "grid": _grid},
    )
    settings = {key: section[key] for key in ("cutoffs", "grid", "slack", "slack_scale", "propensity_degree")
                if key in section}
    if args.cutoffs is not None:
        settings["cutoffs"] = _numbers(args.cutoffs.split(","), "--cutoffs")
    if args.grid is not None:
        settings["grid"] = _parse_grid_flag(args.grid)
    if args.slack is not None:
        settings["slack"] = _number(args.slack, "--slack")
    mi_config = MomentInequalityConfig(**settings)
    try:
        mi_config.validate()
    except ValueError as exc:
        raise ConfigError(f"partialid: {exc}") from exc
    dataset = _load_panel(section, "partialid", args.data)
    out = _out_dir(args)
    result = _run_on_panel(identified_set, dataset, mi_config)

    stats = [f"stat_q{('%g' % (100 * lv)).replace('.', '_')}" for lv in result.cutoff_levels]
    _write_table(
        os.path.join(out, "partialid.csv"), [*GRID_AXES, *stats, "feasible"],
        [*result.candidates.T, *result.statistics.T, result.feasible], "\n",
    )
    print(f"cutoff levels {result.cutoff_levels} -> m cutoffs {[round(float(c), 6) for c in result.cutoffs]}")
    print(f"slack {_fmt(result.slack)}, feasible fraction {result.volume_fraction:.4f}, empty: {result.empty}")
    for name in GRID_AXES:
        bounds = [_fmt(v) + (" (grid edge)" if edge else "")
                  for v, edge in zip(result.bounding_box[name], result.at_grid_edge[name])]
        print("%-10s [%s, %s]" % (name, *bounds))
    for w in result.warnings:
        print("warning:", w, file=sys.stderr)
    print(f"wrote partialid.csv to {out}")
    return 0


def cmd_report(args, config: dict) -> int:
    section = _typed(_section(config, "report"), "report", {**_PANEL, "params": _path, "latents": _path})
    params_path = _resolve(args.params, section.get("params"), None)
    latents_path = _resolve(args.latents, section.get("latents"), None)
    if params_path is None or latents_path is None:
        raise ConfigError("report: both params and latents files are required")
    dataset = _load_panel(section, "report", args.data)
    values = {name: value for (name,), (value,) in _read_table(params_path, ("parameter", "value"), 1).items()}
    if not set(_BETAS) <= set(values):
        raise DataError(f"{params_path}: missing parameters {sorted(set(_BETAS) - set(values))}")
    params = TranslogParams(**{name: values[name] for name in _BETAS}, theta=values.get("theta", 1.0))
    latents = _read_table(latents_path, ("firm_id", "year", "phi_hat", "omega_hat", "eta_hat"), 2)
    try:
        phi, omega, _eta = np.array([latents[(label, str(year))] for label, year in zip(dataset.labels, dataset.year)]).T
    except KeyError as exc:
        label, year = exc.args[0]
        raise DataError(f"{latents_path}: no latent row for firm {label} year {year}") from exc
    out = _out_dir(args)

    record = elasticities(params, dataset.k, dataset.m, dataset.l, phi)
    _write_table(
        os.path.join(out, "elasticities.csv"), ("firm_id", "year", "capital", "labor", "material", "rts"),
        [dataset.labels, dataset.year, record.capital, record.labor, record.material, record.rts], "\n",
    )
    series = aggregate_productivity(dataset, types.SimpleNamespace(params=params, phi_hat=phi, omega_hat=omega))
    _write_table(
        os.path.join(out, "aggregates.csv"), ("year", "phi", "omega", "labor_phi"),
        [series.years, series.phi, series.omega, series.labor_phi], "\n",
    )
    print(f"wrote elasticities.csv, aggregates.csv to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prodsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        """A subcommand with ``--config``, ``--out`` and the ``shared`` flags it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")
        if "seed" in shared:
            p.add_argument("--seed", type=int, help="master seed (overrides config)")
        if "data" in shared:
            p.add_argument("--data", help="panel CSV path")
        if "proxy" in shared:
            p.add_argument("--proxy", choices=(*PROXIES, "material"), help="omega proxy input")
        return p

    command("simulate", "draw a synthetic panel and write it to CSV", "seed")

    p = command("estimate", "run the estimator on a panel CSV", "data", "proxy")
    p.add_argument("--law", choices=("parametric", "sieve"), help="productivity law family")
    p.add_argument("--degree", help="sieve degree: auto or a positive integer")

    p = command("montecarlo", "replicated simulate-estimate study", "seed", "proxy")
    p.add_argument("--replications", "-R", dest="replications", type=int, help="replication count")
    p.add_argument("--threads", type=int, help="worker processes (overrides config)")

    p = command("bootstrap", "wild residual block bootstrap on a panel CSV", "seed", "data", "proxy")
    p.add_argument("--B", dest="B", type=int, help="bootstrap replication count")

    p = command("partialid", "moment-inequality identified set on a panel CSV", "data")
    p.add_argument("--cutoffs", help="comma-separated quantile levels")
    p.add_argument("--slack", type=float, help="inequality slack")
    p.add_argument("--grid", help="per-axis grid, e.g. beta_k=0.1:0.3:11,beta_kk=-0.05:0.03:11,...")

    p = command("report", "elasticity and aggregate-productivity tables", "data")
    p.add_argument("--params", help="params.csv from a previous estimate run")
    p.add_argument("--latents", help="latents.csv from a previous estimate run")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "montecarlo": cmd_montecarlo,
    "bootstrap": cmd_bootstrap,
    "partialid": cmd_partialid,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        # top-level settings, checked for every command: flag beats file beats default
        for key, reader, default in (("seed", _seed, 0), ("threads", _positive_int, 1), ("out", _path, ".")):
            value = reader(_resolve(None, config.get(key), default), key)
            flag = getattr(args, key, None)
            setattr(args, key, value if flag is None else reader(flag, f"--{key}"))
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
