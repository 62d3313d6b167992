"""Command-line interface for simulation, estimation and inference runs.

One YAML config file per run plus a small set of override flags; flag
beats file beats default.  Every command is a pure function of its
inputs, config and seed, so re-running writes byte-identical files.  All
numeric output carries 17 significant digits.

Exit codes: 0 success, 2 config error, 3 data error, 4 estimation
non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import types

import numpy as np
import yaml

from .bootstrap import BootstrapConfig, pack_parameters, parameter_names, run_bootstrap
from .diagnostics import aggregate_productivity, elasticities, monte_carlo_study
from .panel import FLOAT_FORMAT, PanelDataset, load_csv, write_csv, write_prices_csv
from .partialid import GRID_AXES, MomentInequalityConfig, identified_set
from .simulate import CesParams, DgpConfig, generate_panel
from .sieve import sieve_estimate
from .translog import EstimateOptions, ProductivityLaws, TranslogParams, estimate

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
    version = raw.get("schema", SCHEMA_VERSION)
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
    section = config.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a mapping")
    return section


def _out_dir(args, config) -> str:
    out = _resolve(args.out, config.get("out"), ".")
    os.makedirs(out, exist_ok=True)
    return out


def _number(value, path: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def _numbers(values, path: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {values!r}")
    return tuple(_number(v, path) for v in values)


def _positive_int(value, path: str) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: expected an integer, got {value!r}") from exc
    if value < 1:
        raise ConfigError(f"{path}: must be at least 1")
    return value


# ---------------------------------------------------------------------------
# config -> domain objects


def _dgp_from_config(section: dict, path: str, seed: int) -> DgpConfig:
    allowed = (
        "n", "t_periods", "technology", "params", "ces", "laws",
        "sigma_omega", "sigma_phi", "sigma_eta",
        "omega_init_range", "phi_init_range", "k_init_range",
        "iota", "depreciation_rates", "price_y", "price_l", "price_m", "markup",
    )
    _check_keys(section, allowed, path)
    kwargs = {k: section[k] for k in ("n", "t_periods", "technology", "sigma_omega", "sigma_phi", "sigma_eta", "markup") if k in section}
    if "params" in section:
        _check_keys(section["params"], ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0"), f"{path}.params")
        kwargs["params"] = TranslogParams(**{k: float(v) for k, v in section["params"].items()})
    if "ces" in section:
        _check_keys(section["ces"], ("sigma", "nu", "beta_k", "beta_m"), f"{path}.ces")
        kwargs["ces"] = CesParams(**{k: float(v) for k, v in section["ces"].items()})
    if "laws" in section:
        _check_keys(section["laws"], ("rho_phi_1", "rho_omega_0", "rho_omega_1"), f"{path}.laws")
        kwargs["laws"] = ProductivityLaws(**{k: float(v) for k, v in section["laws"].items()})
    for key in ("omega_init_range", "phi_init_range", "k_init_range"):
        if key in section:
            pair = section[key]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{path}.{key}: expected [low, high]")
            kwargs[key] = (float(pair[0]), float(pair[1]))
    if "iota" in section:
        kwargs["iota"] = tuple(float(v) for v in section["iota"])
    if "depreciation_rates" in section:
        kwargs["depreciation_rates"] = tuple(float(v) for v in section["depreciation_rates"])
    for key in ("price_y", "price_l", "price_m"):
        if key in section:
            value = section[key]
            kwargs[key] = [float(v) for v in value] if isinstance(value, (list, tuple)) else float(value)
    config = DgpConfig(seed=seed, **kwargs)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config


def _estimator_options(section: dict, path: str, args=None) -> EstimateOptions:
    allowed = ("proxy", "instruments", "refine", "grad_tol", "max_iter")
    _check_keys(section, allowed, path)
    proxy = _resolve(getattr(args, "proxy", None), section.get("proxy"), "materials")
    if proxy == "material":
        proxy = "materials"
    if proxy not in ("materials", "labor", "average"):
        raise ConfigError(f"{path}.proxy: must be materials, labor or average, got {proxy!r}")
    refine = section.get("refine", "system")
    if refine not in ("system", "none"):
        raise ConfigError(f"{path}.refine: must be system or none, got {refine!r}")
    instruments = section.get("instruments", "default")
    if instruments not in ("default", "exactly_identified"):
        raise ConfigError(f"{path}.instruments: must be default or exactly_identified, got {instruments!r}")
    grad_tol = _number(section.get("grad_tol", 1e-8), f"{path}.grad_tol")
    if not grad_tol > 0.0:
        raise ConfigError(f"{path}.grad_tol: must be a positive number, got {grad_tol!r}")
    return EstimateOptions(
        proxy=proxy,
        instruments=instruments,
        refine=refine,
        grad_tol=grad_tol,
        max_iter=_positive_int(section.get("max_iter", 500), f"{path}.max_iter"),
    )


def _load_panel(section: dict, path: str, data_flag=None) -> PanelDataset:
    data = _resolve(data_flag, section.get("data"), None)
    if data is None:
        raise ConfigError(f"{path}.data: no input CSV given (use --data or the config file)")
    try:
        dataset, report = load_csv(
            data,
            x_columns=tuple(section.get("x_columns", ())),
            z_columns=tuple(section.get("z_columns", ())),
            prices=section.get("prices"),
        )
    except FileNotFoundError as exc:
        raise DataError(f"input file not found: {data}") from exc
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
# commands


def cmd_simulate(args, config: dict) -> int:
    section = _section(config, "simulate")
    seed = int(_resolve(args.seed, config.get("seed"), 0))
    dgp = _dgp_from_config(section, "simulate", seed)
    out = _out_dir(args, config)
    dataset, truth = generate_panel(dgp, seed=seed)
    write_csv(dataset, os.path.join(out, "panel.csv"))
    write_prices_csv(dataset, os.path.join(out, "prices.csv"))
    with open(os.path.join(out, "truth.csv"), "w") as fh:
        fh.write("firm_id,year,omega,phi,eta\n")
        firm_index = {label: i for i, label in enumerate(dataset.firm_labels)}
        t0 = int(np.min(dataset.year))
        for row in range(dataset.n_obs):
            i = firm_index[dataset.labels[row]]
            t = int(dataset.year[row]) - t0
            fh.write(
                "%s,%d,%s,%s,%s\n"
                % (
                    dataset.labels[row],
                    dataset.year[row],
                    _fmt(truth.omega[i, t]),
                    _fmt(truth.phi[i, t]),
                    _fmt(truth.eta[i, t]),
                )
            )
    print(f"simulated panel: n={dgp.n} firms, T={dgp.t_periods} periods, seed={seed}")
    print(f"max static FOC residual: {truth.max_foc_residual:.3e}")
    print(f"wrote panel.csv, prices.csv, truth.csv to {out}")
    return 0


def _write_params_csv(path: str, rows: list[tuple[str, float]]) -> None:
    with open(path, "w") as fh:
        fh.write("parameter,value\n")
        for name, value in rows:
            fh.write("%s,%s\n" % (name, _fmt(value)))


def _write_latents_csv(path: str, dataset: PanelDataset, result) -> None:
    with open(path, "w") as fh:
        fh.write("firm_id,year,phi_hat,omega_hat,eta_hat\n")
        for i in range(dataset.n_obs):
            fh.write(
                "%s,%d,%s,%s,%s\n"
                % (dataset.labels[i], dataset.year[i], _fmt(result.phi_hat[i]),
                   _fmt(result.omega_hat[i]), _fmt(result.eta_hat[i]))
            )


def _param_rows(result, dataset: PanelDataset) -> list[tuple[str, float]]:
    # zip stops at the technology block when the laws are series (laws=None)
    return list(zip(parameter_names(dataset), pack_parameters(result.params, result.laws)))


def cmd_estimate(args, config: dict) -> int:
    section = dict(_section(config, "estimate"))
    _check_keys(
        section,
        ("data", "prices", "x_columns", "z_columns", "law", "degree",
         "proxy", "instruments", "refine", "grad_tol", "max_iter"),
        "estimate",
    )
    law = _resolve(args.law, section.get("law"), "parametric")
    if law not in ("parametric", "sieve"):
        raise ConfigError(f"estimate.law: must be parametric or sieve, got {law!r}")
    opts_section = {k: section[k] for k in ("proxy", "instruments", "refine", "grad_tol", "max_iter") if k in section}
    options = _estimator_options(opts_section, "estimate", args)
    degree = _resolve(args.degree, section.get("degree"), "auto")
    if law == "sieve" and degree != "auto":
        degree = _positive_int(degree, "estimate.degree")
    dataset = _load_panel(section, "estimate", args.data)
    out = _out_dir(args, config)

    if law == "sieve":
        result = _run_on_panel(
            sieve_estimate, dataset, degree=degree, proxy=options.proxy, instruments=options.instruments,
            grad_tol=options.grad_tol, max_iter=options.max_iter,
        )
        rows = _param_rows(result, dataset)
        rows.extend((f"phi_law_coef[{j}]", v) for j, v in enumerate(result.step2.coef))
        rows.extend((f"omega_law_coef[{j}]", v) for j, v in enumerate(result.step3.coef))
        rows.extend([("degree_phi", float(result.degree_phi)), ("degree_omega", float(result.degree_omega))])
        converged = result.step2.converged and result.step3.converged
        summary = [
            f"law: sieve, degrees phi={result.degree_phi} omega={result.degree_omega}",
            f"step2 objective {result.step2.objective:.6e} converged {result.step2.converged}",
            f"step3 objective {result.step3.objective:.6e} converged {result.step3.converged}",
        ]
    else:
        result = _run_on_panel(estimate, dataset, options)
        rows = _param_rows(result, dataset)
        converged = result.step2.converged and result.step3.converged
        summary = [
            "law: parametric",
            f"step2 objective {result.step2.objective:.6e} converged {result.step2.converged}",
            f"step3 objective {result.step3.objective:.6e} converged {result.step3.converged}",
        ]
        if result.system is not None:
            converged = converged and result.system.converged
            summary.append(
                f"system objective {result.system.objective:.6e} converged {result.system.converged}"
            )

    _write_params_csv(os.path.join(out, "params.csv"), rows)
    _write_latents_csv(os.path.join(out, "latents.csv"), dataset, result)
    record = elasticities(result.params, dataset.k, dataset.m, dataset.l, result.phi_hat)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
        for name, value in rows:
            fh.write("%-20s %s\n" % (name, _fmt(value)))
        fh.write("mean elasticities: capital %.6f labor %.6f material %.6f rts %.6f\n" % (
            float(np.mean(record.capital)), float(np.mean(record.labor)),
            float(np.mean(record.material)), float(np.mean(record.rts)),
        ))
        for w in result.warnings:
            fh.write("warning: %s\n" % w)
    for line in summary:
        print(line)
    for name, value in rows:
        print("%-20s %s" % (name, _fmt(value)))
    for w in result.warnings:
        print("warning:", w, file=sys.stderr)
    print(f"wrote params.csv, latents.csv, report.txt to {out}")
    if not converged:
        raise EstimationError("estimation did not converge; see report.txt")
    return 0


def cmd_montecarlo(args, config: dict) -> int:
    section = _section(config, "montecarlo")
    _check_keys(section, ("replications", "dgp", "estimator"), "montecarlo")
    replications = _positive_int(_resolve(args.replications, section.get("replications"), 200), "montecarlo.replications")
    seed = int(_resolve(args.seed, config.get("seed"), 0))
    threads = _positive_int(_resolve(args.threads, config.get("threads"), 1), "threads")
    dgp = _dgp_from_config(section.get("dgp") or {}, "montecarlo.dgp", seed)
    if dgp.technology != "translog":
        raise ConfigError(
            f"montecarlo.dgp.technology: the study fits the translog estimator, so it needs translog data, "
            f"got {dgp.technology!r}"
        )
    options = _estimator_options(section.get("estimator") or {}, "montecarlo.estimator", args)
    out = _out_dir(args, config)
    try:
        report = monte_carlo_study(dgp, replications, options, seed=seed, threads=threads)
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
    section = _section(config, "bootstrap")
    _check_keys(
        section,
        ("data", "prices", "x_columns", "z_columns", "n_reps", "levels", "weight_override",
         "proxy", "instruments", "refine", "grad_tol", "max_iter"),
        "bootstrap",
    )
    opts_section = {k: section[k] for k in ("proxy", "instruments", "refine", "grad_tol", "max_iter") if k in section}
    options = _estimator_options(opts_section, "bootstrap", args)
    seed = int(_resolve(args.seed, config.get("seed"), 0))
    n_reps = _positive_int(_resolve(args.B, section.get("n_reps"), 200), "bootstrap.n_reps")
    levels = _numbers(section.get("levels", (0.90, 0.95, 0.99)), "bootstrap.levels")
    override = section.get("weight_override")
    boot_config = BootstrapConfig(
        n_reps=n_reps, seed=seed, levels=levels,
        weight_override=None if override is None else _number(override, "bootstrap.weight_override"),
    )
    try:
        boot_config.validate()
    except ValueError as exc:
        raise ConfigError(f"bootstrap: {exc}") from exc
    dataset = _load_panel(section, "bootstrap", args.data)
    out = _out_dir(args, config)

    point = _run_on_panel(estimate, dataset, options)
    converged = point.step2.converged and point.step3.converged
    if point.system is not None:
        converged = converged and point.system.converged
    if not converged:
        raise EstimationError("point estimation did not converge; bootstrap not run")
    try:
        result = run_bootstrap(dataset, point, boot_config, options)
    except ValueError as exc:
        raise EstimationError(str(exc)) from exc

    point_vec = pack_parameters(point.params, point.laws)
    with open(os.path.join(out, "bootstrap.csv"), "w") as fh:
        header = "parameter,point,se"
        for level in levels:
            tag = ("%g" % (100 * level)).replace(".", "_")
            header += f",lower{tag},upper{tag}"
        fh.write(header + "\n")
        for j, name in enumerate(result.names):
            row = [name, _fmt(point_vec[j]), _fmt(result.standard_errors[j])]
            for level in levels:
                lo, hi = result.intervals[float(level)]
                row.extend([_fmt(lo[j]), _fmt(hi[j])])
            fh.write(",".join(row) + "\n")
    with open(os.path.join(out, "draws.csv"), "w") as fh:
        fh.write(",".join(result.names) + "\n")
        for row in result.draws:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"bootstrap: {result.draws.shape[0]} successful replicates, {result.n_failures} failures")
    for j, name in enumerate(result.names):
        print("%-20s se %s" % (name, _fmt(result.standard_errors[j])))
    for w in result.warnings:
        print("warning:", w, file=sys.stderr)
    print(f"wrote bootstrap.csv, draws.csv to {out}")
    return 0


def _parse_cutoffs(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--cutoffs: expected comma-separated numbers, got {text!r}") from exc


def _parse_grid_flag(text: str) -> dict:
    grid = {}
    for item in text.split(","):
        try:
            name, spec = item.split("=")
            lo, hi, count = spec.split(":")
            grid[name] = np.linspace(float(lo), float(hi), int(count))
        except ValueError as exc:
            raise ConfigError(
                f"--grid: expected name=low:high:count entries, got {item!r}"
            ) from exc
    return grid


def _grid_from_section(section_grid: dict) -> dict:
    _check_keys(section_grid, GRID_AXES, "partialid.grid")
    grid = {}
    for name, spec in section_grid.items():
        _check_keys(spec, ("min", "max", "count"), f"partialid.grid.{name}")
        path = f"partialid.grid.{name}"
        lo, hi = _number(spec.get("min"), f"{path}.min"), _number(spec.get("max"), f"{path}.max")
        grid[name] = np.linspace(lo, hi, _positive_int(spec.get("count", 11), f"{path}.count"))
    return grid


def cmd_partialid(args, config: dict) -> int:
    section = _section(config, "partialid")
    _check_keys(
        section,
        ("data", "prices", "x_columns", "z_columns", "cutoffs", "slack", "slack_scale",
         "propensity_degree", "grid"),
        "partialid",
    )
    if args.cutoffs is not None:
        cutoffs = _parse_cutoffs(args.cutoffs)
    else:
        cutoffs = _numbers(section.get("cutoffs", (0.25, 0.5, 0.75)), "partialid.cutoffs")
    grid = None
    if args.grid is not None:
        grid = _parse_grid_flag(args.grid)
    elif section.get("grid") is not None:
        grid = _grid_from_section(section["grid"])
    slack = _resolve(args.slack, section.get("slack"), None)
    mi_config = MomentInequalityConfig(
        cutoffs=tuple(cutoffs),
        grid=grid,
        slack=None if slack is None else _number(slack, "partialid.slack"),
        slack_scale=_number(section.get("slack_scale", 1.0), "partialid.slack_scale"),
        propensity_degree=_positive_int(section.get("propensity_degree", 1), "partialid.propensity_degree"),
    )
    try:
        mi_config.validate()
    except ValueError as exc:
        raise ConfigError(f"partialid: {exc}") from exc
    dataset = _load_panel(section, "partialid", args.data)
    out = _out_dir(args, config)
    result = _run_on_panel(identified_set, dataset, mi_config)

    with open(os.path.join(out, "partialid.csv"), "w") as fh:
        header = list(GRID_AXES) + [f"stat_q{('%g' % (100 * lv)).replace('.', '_')}" for lv in result.cutoff_levels]
        fh.write(",".join(header + ["feasible"]) + "\n")
        for g in range(result.candidates.shape[0]):
            row = [_fmt(v) for v in result.candidates[g]]
            row.extend(_fmt(v) for v in result.statistics[g])
            row.append("1" if result.feasible[g] else "0")
            fh.write(",".join(row) + "\n")
    print(f"cutoff levels {result.cutoff_levels} -> m cutoffs {[round(float(c), 6) for c in result.cutoffs]}")
    print(f"slack {_fmt(result.slack)}, feasible fraction {result.volume_fraction:.4f}, empty: {result.empty}")
    for name in GRID_AXES:
        lo, hi = result.bounding_box[name]
        print("%-10s [%s, %s]" % (name, _fmt(lo), _fmt(hi)))
    for w in result.warnings:
        print("warning:", w, file=sys.stderr)
    print(f"wrote partialid.csv to {out}")
    return 0


def _read_params_csv(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "parameter,value":
                raise DataError(f"{path}: expected header 'parameter,value'")
            for line in fh:
                if not line.strip():
                    continue
                name, value = line.strip().split(",")
                values[name] = float(value)
    except FileNotFoundError as exc:
        raise DataError(f"parameter file not found: {path}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed row ({exc})") from exc
    missing = {"beta_k", "beta_kk", "beta_l", "beta_m", "beta_0"} - set(values)
    if missing:
        raise DataError(f"{path}: missing parameters {sorted(missing)}")
    return values


def _read_latents_csv(path: str, dataset: PanelDataset):
    table = {}
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "firm_id,year,phi_hat,omega_hat,eta_hat":
                raise DataError(f"{path}: expected header 'firm_id,year,phi_hat,omega_hat,eta_hat'")
            for line in fh:
                if not line.strip():
                    continue
                firm, year, phi, omega, eta = line.strip().split(",")
                table[(firm, int(year))] = (float(phi), float(omega), float(eta))
    except FileNotFoundError as exc:
        raise DataError(f"latent series file not found: {path}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed row ({exc})") from exc
    phi = np.empty(dataset.n_obs)
    omega = np.empty(dataset.n_obs)
    eta = np.empty(dataset.n_obs)
    for i in range(dataset.n_obs):
        key = (str(dataset.labels[i]), int(dataset.year[i]))
        if key not in table:
            raise DataError(f"{path}: no latent row for firm {key[0]} year {key[1]}")
        phi[i], omega[i], eta[i] = table[key]
    return phi, omega, eta


def cmd_report(args, config: dict) -> int:
    section = _section(config, "report")
    _check_keys(section, ("data", "prices", "x_columns", "z_columns", "params", "latents"), "report")
    dataset = _load_panel(section, "report", args.data)
    params_path = _resolve(args.params, section.get("params"), None)
    latents_path = _resolve(args.latents, section.get("latents"), None)
    if params_path is None or latents_path is None:
        raise ConfigError("report: both params and latents files are required")
    values = _read_params_csv(params_path)
    params = TranslogParams(
        beta_k=values["beta_k"], beta_kk=values["beta_kk"], beta_l=values["beta_l"],
        beta_m=values["beta_m"], beta_0=values["beta_0"], theta=values.get("theta", 1.0),
    )
    phi, omega, _eta = _read_latents_csv(latents_path, dataset)
    out = _out_dir(args, config)

    record = elasticities(params, dataset.k, dataset.m, dataset.l, phi)
    with open(os.path.join(out, "elasticities.csv"), "w") as fh:
        fh.write("firm_id,year,capital,labor,material,rts\n")
        for i in range(dataset.n_obs):
            fh.write(
                "%s,%d,%s,%s,%s,%s\n"
                % (dataset.labels[i], dataset.year[i], _fmt(record.capital[i]),
                   _fmt(record.labor[i]), _fmt(record.material[i]), _fmt(record.rts[i]))
            )

    carrier = types.SimpleNamespace(params=params, phi_hat=phi, omega_hat=omega)
    series = aggregate_productivity(dataset, carrier)
    with open(os.path.join(out, "aggregates.csv"), "w") as fh:
        fh.write("year,phi,omega,labor_phi\n")
        for j, year in enumerate(series.years):
            fh.write("%d,%s,%s,%s\n" % (year, _fmt(series.phi[j]), _fmt(series.omega[j]), _fmt(series.labor_phi[j])))
    print(f"wrote elasticities.csv, aggregates.csv to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prodsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--threads", type=int, help="worker processes where supported")

    p = sub.add_parser("simulate", help="draw a synthetic panel and write it to CSV")
    common(p)

    p = sub.add_parser("estimate", help="run the estimator on a panel CSV")
    common(p)
    p.add_argument("--data", help="panel CSV path")
    p.add_argument("--law", choices=("parametric", "sieve"), help="productivity law family")
    p.add_argument("--degree", help="sieve degree: auto or a positive integer")
    p.add_argument("--proxy", choices=("materials", "material", "labor", "average"), help="omega proxy input")

    p = sub.add_parser("montecarlo", help="replicated simulate-estimate study")
    common(p)
    p.add_argument("--replications", "-R", dest="replications", type=int, help="replication count")
    p.add_argument("--proxy", choices=("materials", "material", "labor", "average"), help="omega proxy input")

    p = sub.add_parser("bootstrap", help="wild residual block bootstrap on a panel CSV")
    common(p)
    p.add_argument("--data", help="panel CSV path")
    p.add_argument("--B", dest="B", type=int, help="bootstrap replication count")
    p.add_argument("--proxy", choices=("materials", "material", "labor", "average"), help="omega proxy input")

    p = sub.add_parser("partialid", help="moment-inequality identified set on a panel CSV")
    common(p)
    p.add_argument("--data", help="panel CSV path")
    p.add_argument("--cutoffs", help="comma-separated quantile levels")
    p.add_argument("--slack", type=float, help="inequality slack")
    p.add_argument("--grid", help="per-axis grid, e.g. beta_k=0.1:0.3:11,beta_kk=-0.05:0.03:11,...")

    p = sub.add_parser("report", help="elasticity and aggregate-productivity tables")
    common(p)
    p.add_argument("--data", help="panel CSV path")
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
