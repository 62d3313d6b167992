"""Command-line output tables and exit codes."""

import types

import numpy as np
import pytest

from prodsys.bootstrap import parameter_names
from prodsys.cli import _param_rows, main
from prodsys.panel import PanelDataset, write_csv
from prodsys.simulate import DgpConfig, generate_panel
from prodsys.translog import ProductivityLaws, TranslogParams


def test_param_rows_use_the_parameter_layout():
    two = PanelDataset(
        np.array([0, 0]), np.array([0, 1]), np.zeros(2), np.zeros(2), np.zeros(2),
        np.full(2, 0.1), np.full(2, 0.5), np.full(2, -0.3),
        x=np.zeros((2, 1)), z=np.zeros((2, 1)), x_names=("rd",), z_names=("export",),
    )
    params = TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-0.05)
    laws = ProductivityLaws(rho_phi_1=0.9, rho_omega_0=0.2, rho_omega_1=0.6, rho_phi_2=[0.1], rho_omega_2=[0.3])
    rows = _param_rows(types.SimpleNamespace(params=params, laws=laws), two)
    assert [name for name, _ in rows] == list(parameter_names(two))
    assert dict(rows)["rho_phi_2[export]"] == 0.1 and dict(rows)["rho_omega_2[rd]"] == 0.3
    # series laws have no linear coefficients: only the technology is reported
    rows = _param_rows(types.SimpleNamespace(params=params, laws=None), two)
    assert [name for name, _ in rows] == list(parameter_names(two)[:6])


# -- exit codes ----------------------------------------------------------------

CES_DGP = """
    n: 20
    t_periods: 4
    technology: ces
    ces: {sigma: 0.6, nu: 0.9, beta_k: 0.2, beta_m: 0.5}
"""


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
@pytest.mark.parametrize("setting", ["instruments: bogus", "grad_tol: -1", "grad_tol: tiny", "max_iter: lots"])
def test_bad_estimator_setting_is_a_config_error(tmp_path, small_panel, capsys, command, setting):
    data = tmp_path / "panel.csv"
    write_csv(small_panel[0], data)
    config = write_config(tmp_path, f"{command}:\n  data: {data}\n  {setting}\n")
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "bootstrap":
        argv += ["--B", "1"]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(("command", "settings", "named"), [
    ("estimate", "instruments: bogus", "instruments"),
    ("estimate", "law: sieve\n  degree: 0", "degree"),
    ("bootstrap", "instruments: bogus", "instruments"),
    ("bootstrap", "n_reps: 0", "n_reps"),
], ids=["estimate-instruments", "estimate-degree", "bootstrap-instruments", "bootstrap-n_reps"])
def test_settings_are_checked_before_the_data(tmp_path, capsys, command, settings, named):
    # no data key: the bad setting is reported, not the missing CSV
    config = write_config(tmp_path, f"{command}:\n  {settings}\n")
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert named in err and "no input CSV" not in err


@pytest.mark.parametrize(("command", "settings", "named"), [
    ("partialid", "slack_scale: abc", "slack_scale"),
    ("partialid", "slack: abc", "slack"),
    ("partialid", "cutoffs: [abc]", "cutoffs"),
    ("partialid", "cutoffs: 0.5", "cutoffs"),
    ("partialid", "cutoffs: [1.5]", "cutoff"),
    ("partialid", "propensity_degree: abc", "propensity_degree"),
    ("partialid", "grid: {beta_k: {min: low, max: 0.3}}", "grid.beta_k.min"),
    ("partialid", "grid: 3", "grid"),
    ("bootstrap", "levels: [abc]", "levels"),
    ("bootstrap", "weight_override: .nan", "weight_override"),
    ("bootstrap", "weight_override: abc", "weight_override"),
], ids=[
    "partialid-slack_scale", "partialid-slack", "partialid-cutoffs-text", "partialid-cutoffs-scalar",
    "partialid-cutoffs-range", "partialid-propensity_degree", "partialid-grid-min", "partialid-grid-scalar", "bootstrap-levels",
    "bootstrap-weight_override-nan", "bootstrap-weight_override-text",
])
def test_bad_numeric_settings_are_config_errors_before_the_data(tmp_path, capsys, command, settings, named):
    # no data key: the bad setting is reported (exit 2), not the missing CSV
    # and not a traceback
    config = write_config(tmp_path, f"{command}:\n  {settings}\n")
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert named in err and "no input CSV" not in err


@pytest.mark.parametrize("command", [["estimate"], ["estimate", "--law", "sieve"], ["bootstrap", "--B", "1"]])
def test_unusable_panel_is_a_data_error(tmp_path, capsys, command):
    # three firms over two years leave fewer lag pairs than instruments
    dataset, _ = generate_panel(DgpConfig(n=3, t_periods=2, seed=1), seed=1)
    data = tmp_path / "tiny.csv"
    write_csv(dataset, data)
    assert main([*command, "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    assert "data error:" in capsys.readouterr().err


def test_ces_monte_carlo_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "montecarlo:\n  replications: 1\n  dgp:" + CES_DGP)
    assert main(["montecarlo", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "technology" in capsys.readouterr().err
    assert not (tmp_path / "out" / "mc.csv").exists()


def test_ces_panels_can_still_be_simulated(tmp_path):
    config = write_config(tmp_path, "simulate:" + CES_DGP)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "panel.csv").exists()
