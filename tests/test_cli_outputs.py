"""Every table the command line writes, byte for byte against the library.

Seven commands run once on a tiny fixed config.  Each output file is
compared with the same objects computed through the library and
formatted with ``FLOAT_FORMAT``.
"""

import numpy as np
import pytest

from prodsys.bootstrap import BootstrapConfig, pack_parameters, parameter_names, run_bootstrap
from prodsys.cli import main
from prodsys.diagnostics import aggregate_productivity, elasticities, monte_carlo_study
from prodsys.panel import FLOAT_FORMAT, load_csv, write_csv, write_prices_csv
from prodsys.partialid import GRID_AXES, MomentInequalityConfig, identified_set
from prodsys.sieve import sieve_estimate
from prodsys.simulate import DgpConfig, generate_panel
from prodsys.translog import EstimateOptions, estimate

SEED = 5
CONFIG = f"""
seed: {SEED}
simulate: {{n: 40, t_periods: 6}}
montecarlo: {{dgp: {{n: 40, t_periods: 6}}}}
"""
CUTOFFS = (0.3, 0.6)
GRID = {
    "beta_k": (0.1, 0.3, 3), "beta_kk": (-0.02, 0.0, 2), "beta_l": (0.2, 0.3, 3),
    "beta_m": (0.45, 0.55, 3), "beta_0": (-0.1, -0.02, 2),
}


def table(header, rows) -> str:
    """Reference layout: comma-separated, strings verbatim, numbers in ``FLOAT_FORMAT``."""
    def cell(v):
        return v if isinstance(v, str) else FLOAT_FORMAT % v
    return "".join(",".join(cell(v) for v in row) + "\n" for row in [header, *rows])


def dataset_rows(dataset, *columns):
    return [[dataset.labels[i], int(dataset.year[i]), *(c[i] for c in columns)] for i in range(dataset.n_obs)]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run the seven commands; return the root directory of their outputs."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.yaml"
    config.write_text(CONFIG)
    panel = str(root / "simulate" / "panel.csv")
    grid = ",".join(f"{name}={lo}:{hi}:{n}" for name, (lo, hi, n) in GRID.items())
    commands = {
        "simulate": ["simulate"],
        "estimate": ["estimate", "--data", panel],
        "sieve": ["estimate", "--data", panel, "--law", "sieve", "--degree", "2"],
        "bootstrap": ["bootstrap", "--data", panel, "--B", "2"],
        "partialid": ["partialid", "--data", panel, "--cutoffs", ",".join(map(str, CUTOFFS)), "--grid", grid],
        "report": ["report", "--data", panel, "--params", str(root / "estimate" / "params.csv"),
                   "--latents", str(root / "estimate" / "latents.csv")],
        "montecarlo": ["montecarlo", "-R", "2"],
    }
    for out, argv in commands.items():
        assert main([*argv, "--config", str(config), "--out", str(root / out)]) == 0, out
    return root


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    """The simulated panel and truth, and the panel as the commands read it back."""
    generated, truth = generate_panel(DgpConfig(n=40, t_periods=6, seed=SEED), seed=SEED)
    path = tmp_path_factory.mktemp("lib") / "panel.csv"
    write_csv(generated, path)
    dataset, _ = load_csv(str(path))
    return generated, truth, dataset


@pytest.fixture(scope="module")
def point(library):
    return estimate(library[2], EstimateOptions())


def read(root, out, name) -> str:
    return (root / out / name).read_text()


def test_simulate_tables(runs, library, tmp_path):
    generated, truth, _ = library
    write_csv(generated, tmp_path / "panel.csv")
    write_prices_csv(generated, tmp_path / "prices.csv")
    assert read(runs, "simulate", "panel.csv") == (tmp_path / "panel.csv").read_text()
    assert read(runs, "simulate", "prices.csv") == (tmp_path / "prices.csv").read_text()
    firm = {label: i for i, label in enumerate(generated.firm_labels)}
    t0 = int(np.min(generated.year))
    rows = []
    for label, year in zip(generated.labels, generated.year):
        i, t = firm[label], int(year) - t0
        rows.append([label, int(year), truth.omega[i, t], truth.phi[i, t], truth.eta[i, t]])
    assert read(runs, "simulate", "truth.csv") == table(["firm_id", "year", "omega", "phi", "eta"], rows)


def test_estimate_tables(runs, library, point):
    dataset = library[2]
    rows = list(zip(parameter_names(dataset), pack_parameters(point.params, point.laws)))
    assert read(runs, "estimate", "params.csv") == table(["parameter", "value"], rows)
    assert read(runs, "estimate", "latents.csv") == table(
        ["firm_id", "year", "phi_hat", "omega_hat", "eta_hat"],
        dataset_rows(dataset, point.phi_hat, point.omega_hat, point.eta_hat),
    )


def test_sieve_estimate_tables(runs, library):
    dataset = library[2]
    result = sieve_estimate(dataset, degree=2)
    rows = list(zip(parameter_names(dataset), pack_parameters(result.params, result.laws)))
    rows += [(f"phi_law_coef[{j}]", v) for j, v in enumerate(result.step2.coef)]
    rows += [(f"omega_law_coef[{j}]", v) for j, v in enumerate(result.step3.coef)]
    rows += [("degree_phi", float(result.degree_phi)), ("degree_omega", float(result.degree_omega))]
    assert read(runs, "sieve", "params.csv") == table(["parameter", "value"], rows)
    assert read(runs, "sieve", "latents.csv") == table(
        ["firm_id", "year", "phi_hat", "omega_hat", "eta_hat"],
        dataset_rows(dataset, result.phi_hat, result.omega_hat, result.eta_hat),
    )


def test_bootstrap_tables(runs, library, point):
    levels = (0.90, 0.95, 0.99)
    result = run_bootstrap(library[2], point, BootstrapConfig(n_reps=2, seed=SEED, levels=levels))
    vec = pack_parameters(point.params, point.laws)
    header = ["parameter", "point", "se", "lower90", "upper90", "lower95", "upper95", "lower99", "upper99"]
    rows = []
    for j, name in enumerate(result.names):
        row = [name, vec[j], result.standard_errors[j]]
        for level in levels:
            lo, hi = result.intervals[level]
            row += [lo[j], hi[j]]
        rows.append(row)
    assert read(runs, "bootstrap", "bootstrap.csv") == table(header, rows)
    assert read(runs, "bootstrap", "draws.csv") == table(list(result.names), result.draws)


def test_partialid_table(runs, library):
    grid = {name: np.linspace(lo, hi, n) for name, (lo, hi, n) in GRID.items()}
    result = identified_set(library[2], MomentInequalityConfig(cutoffs=CUTOFFS, grid=grid))
    header = [*GRID_AXES, "stat_q30", "stat_q60", "feasible"]
    rows = [[*result.candidates[g], *result.statistics[g], "1" if result.feasible[g] else "0"]
            for g in range(result.candidates.shape[0])]
    assert read(runs, "partialid", "partialid.csv") == table(header, rows)


def test_report_tables(runs, library, point):
    dataset = library[2]
    record = elasticities(point.params, dataset.k, dataset.m, dataset.l, point.phi_hat)
    assert read(runs, "report", "elasticities.csv") == table(
        ["firm_id", "year", "capital", "labor", "material", "rts"],
        dataset_rows(dataset, record.capital, record.labor, record.material, record.rts),
    )
    series = aggregate_productivity(dataset, point)
    rows = [[int(year), series.phi[j], series.omega[j], series.labor_phi[j]] for j, year in enumerate(series.years)]
    assert read(runs, "report", "aggregates.csv") == table(["year", "phi", "omega", "labor_phi"], rows)


def test_montecarlo_tables(runs):
    report = monte_carlo_study(DgpConfig(n=40, t_periods=6, seed=SEED), 2, EstimateOptions(), seed=SEED)
    assert read(runs, "montecarlo", "mc.csv") == report.to_csv()
    assert read(runs, "montecarlo", "mc.txt") == report.to_text() + "\n"
