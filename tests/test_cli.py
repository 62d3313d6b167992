"""Command-line output tables and exit codes."""

import contextlib
import csv
import dataclasses
import io
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from prodsys import cli, sieve
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
    ("estimate", "law: sieve\n  refine: none", "refine"),
    ("estimate", "grad_tol: 1e300", "grad_tol"),
    ("bootstrap", "instruments: bogus", "instruments"),
    ("bootstrap", "n_reps: 0", "n_reps"),
], ids=[
    "estimate-instruments", "estimate-degree", "estimate-sieve-refine", "estimate-grad_tol",
    "bootstrap-instruments", "bootstrap-n_reps",
])
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
], ids=[
    "partialid-slack_scale", "partialid-slack", "partialid-cutoffs-text", "partialid-cutoffs-scalar",
    "partialid-cutoffs-range", "partialid-propensity_degree", "partialid-grid-min", "partialid-grid-scalar", "bootstrap-levels",
])
def test_bad_numeric_settings_are_config_errors_before_the_data(tmp_path, capsys, command, settings, named):
    # no data key: the bad setting is reported (exit 2), not the missing CSV
    # and not a traceback
    config = write_config(tmp_path, f"{command}:\n  {settings}\n")
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert named in err and "no input CSV" not in err


OTHER_AXES = "beta_kk=-0.05:0.03:3,beta_l=0.1:0.4:3,beta_m=0.3:0.7:3,beta_0=-0.2:-0.01:3"


@pytest.mark.parametrize("flags", [
    ["--grid", f"beta_k=nan:0.3:3,{OTHER_AXES}"],
    ["--grid", f"beta_k=0.1:0.3:0,{OTHER_AXES}"],
    ["--cutoffs", "0.5,inf"],
], ids=["grid-nonfinite", "grid-zero-count", "cutoffs-nonfinite"])
def test_partialid_flags_go_through_the_config_readers(tmp_path, small_panel, capsys, flags):
    # the same values in the config file are config errors; as flags they are too
    data = tmp_path / "panel.csv"
    write_csv(small_panel[0], data)
    assert main(["partialid", "--data", str(data), *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and flags[0] in err


@pytest.mark.parametrize(("command", "settings", "named"), [
    ("simulate", "seed: abc", "seed"),
    ("estimate", "estimate: {data: DATA, x_columns: 3}", "estimate.x_columns"),
    ("estimate", "estimate: {data: DATA, prices: 3}", "estimate.prices"),
    ("estimate", "estimate: {data: 3}", "estimate.data"),
    ("partialid", "partialid: {data: DATA, z_columns: 3}", "partialid.z_columns"),
    ("report", "report: {data: DATA, params: 3, latents: 4}", "report.params"),
    ("simulate", "simulate: {n: abc}", "simulate.n"),
    ("simulate", "simulate: {n: 2.5}", "simulate.n"),
    ("simulate", "simulate: {iota: 3}", "simulate.iota"),
    ("simulate", "simulate: {price_y: abc}", "simulate.price_y"),
    ("simulate", "simulate: {params: {beta_k: abc}}", "simulate.params.beta_k"),
    ("montecarlo", "montecarlo: {dgp: {sigma_eta: abc}}", "montecarlo.dgp.sigma_eta"),
], ids=[
    "seed", "estimate-x_columns", "estimate-prices", "estimate-data", "partialid-z_columns", "report-params",
    "simulate-n-text", "simulate-n-fraction", "simulate-iota", "simulate-price_y", "simulate-params",
    "montecarlo-dgp",
])
def test_wrong_kind_config_values_are_config_errors(tmp_path, small_panel, capsys, command, settings, named):
    # a readable panel is given where the command reads one: the value is
    # refused before the data are read, not turned into a traceback
    data = tmp_path / "panel.csv"
    write_csv(small_panel[0], data)
    config = write_config(tmp_path, settings.replace("DATA", str(data)))
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and named in err


# every known config key, by the kind of value it takes; a section is read
# by its own command, the other top-level keys by every command
NUMBER, INTEGER, NUMBERS_OR_NUMBER, LIST, PATH, CHOICE, MAPPING = (
    "number", "integer", "number or list", "list", "path", "choice", "mapping",
)
PANEL_KEYS = {"data": PATH, "prices": PATH, "x_columns": LIST, "z_columns": LIST}
ESTIMATOR_KEYS = {"proxy": CHOICE, "instruments": CHOICE, "refine": CHOICE, "grad_tol": NUMBER, "max_iter": INTEGER}
DGP_KEYS = {
    "n": INTEGER, "t_periods": INTEGER, "technology": CHOICE, "params": MAPPING, "ces": MAPPING, "laws": MAPPING,
    **{f"params.{k}": NUMBER for k in ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0")},
    **{f"ces.{k}": NUMBER for k in ("sigma", "nu", "beta_k", "beta_m")},
    **{f"laws.{k}": NUMBER for k in ("rho_phi_1", "rho_omega_0", "rho_omega_1")},
    **dict.fromkeys(("sigma_omega", "sigma_phi", "sigma_eta", "markup"), NUMBER),
    **dict.fromkeys(("omega_init_range", "phi_init_range", "k_init_range", "iota", "depreciation_rates"), LIST),
    **dict.fromkeys(("price_y", "price_l", "price_m"), NUMBERS_OR_NUMBER),
}
GRID_KEYS = {
    f"grid.{axis}{key}": kind
    for axis in ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0")
    for key, kind in (("", MAPPING), (".min", NUMBER), (".max", NUMBER), (".count", INTEGER))
}
SECTION_KEYS = {
    "simulate": DGP_KEYS,
    "estimate": {**PANEL_KEYS, **ESTIMATOR_KEYS, "law": CHOICE, "degree": INTEGER},
    "montecarlo": {
        "replications": INTEGER, "dgp": MAPPING, "estimator": MAPPING,
        **{f"dgp.{k}": kind for k, kind in DGP_KEYS.items()},
        **{f"estimator.{k}": kind for k, kind in ESTIMATOR_KEYS.items()},
    },
    "bootstrap": {**PANEL_KEYS, **ESTIMATOR_KEYS, "n_reps": INTEGER, "levels": LIST},
    "partialid": {
        **PANEL_KEYS, "cutoffs": LIST, "slack": NUMBER, "slack_scale": NUMBER, "propensity_degree": INTEGER,
        "grid": MAPPING, **GRID_KEYS,
    },
    "report": {**PANEL_KEYS, "params": PATH, "latents": PATH},
}
TOP_KEYS = {"schema": INTEGER, "seed": INTEGER, "threads": INTEGER, "out": PATH, **dict.fromkeys(SECTION_KEYS, MAPPING)}


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# no control, surrogate or line-separator characters, so every drawn value survives a YAML round trip
TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=6)
NON_NUMERIC = TEXT.filter(lambda t: not _parses(t) and t != "auto")
NUMBERS = st.integers(-10, 10) | st.floats(allow_nan=False)
SCALARS = NUMBERS | TEXT | st.booleans()
LISTS = st.lists(SCALARS, max_size=3)
MAPPINGS = st.dictionaries(TEXT, SCALARS, max_size=2)
# only values of the wrong kind: a drawn integer is never a count such as n or B
WRONG_KIND = {
    NUMBER: NON_NUMERIC | LISTS | MAPPINGS | st.booleans(),
    INTEGER: NON_NUMERIC | LISTS | MAPPINGS | st.booleans() | st.floats(allow_nan=False),
    NUMBERS_OR_NUMBER: NON_NUMERIC | st.lists(NON_NUMERIC, min_size=1, max_size=3) | MAPPINGS | st.booleans(),
    LIST: SCALARS,
    PATH: NUMBERS | st.booleans(),
    CHOICE: NUMBERS | LISTS | MAPPINGS | st.booleans(),
    MAPPING: SCALARS | LISTS,
}


@st.composite
def wrong_config(draw):
    """``(command, config, key)``: one known key set to a value of the wrong kind, and no data."""
    section = draw(st.sampled_from([None, *SECTION_KEYS]))
    keys = TOP_KEYS if section is None else SECTION_KEYS[section]
    key = draw(st.sampled_from(sorted(keys)))
    value = draw(WRONG_KIND[keys[key]])
    for part in reversed(key.split(".")):
        value = {part: value}
    if section is None:
        return key if key in SECTION_KEYS else draw(st.sampled_from(sorted(SECTION_KEYS))), value, key
    return section, {section: value}, key


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=wrong_config())
def test_every_wrong_kind_value_is_a_config_error(case):
    command, config, key = case
    text = yaml.safe_dump(config)
    assert yaml.safe_load(text) == config
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "config.yaml"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 2, err.getvalue()
    assert key.split(".")[-1] in err.getvalue() and "no input CSV" not in err.getvalue()


@pytest.mark.parametrize("command", [["estimate"], ["estimate", "--law", "sieve"], ["bootstrap", "--B", "1"]])
def test_unusable_panel_is_a_data_error(tmp_path, capsys, command):
    # three firms over two years leave fewer lag pairs than instruments
    dataset, _ = generate_panel(DgpConfig(n=3, t_periods=2, seed=1), seed=1)
    data = tmp_path / "tiny.csv"
    write_csv(dataset, data)
    assert main([*command, "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    assert "data error:" in capsys.readouterr().err


def test_a_cell_the_csv_module_cannot_hold_is_a_data_error(tmp_path, small_panel, capsys):
    # the blank output cell sends the file to csv.reader, which refuses the long firm id
    data = tmp_path / "panel.csv"
    write_csv(small_panel[0], data)
    lines = data.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("output")] = ""
    lines[1] = ",".join(row)
    lines[2] = "f" * 200_000 + lines[2][lines[2].index(","):]
    data.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    assert f"data error: {data}: line 3: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["estimate", "--data", "{dir}"],
    ["estimate", "--data", "{csv}", "--config", "{prices}"],
    ["report", "--data", "{csv}", "--params", "{dir}", "--latents", "{dir}"],
], ids=["data-directory", "missing-prices", "params-directory"])
def test_unreadable_input_is_a_data_error(tmp_path, small_panel, capsys, argv):
    csv = tmp_path / "panel.csv"
    write_csv(small_panel[0], csv)
    prices = write_config(tmp_path, f"estimate: {{prices: {tmp_path / 'none.csv'}}}\n")
    argv = [a.format(dir=tmp_path, csv=csv, prices=prices) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert "data error: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["estimate", "--seed", "1"], ["partialid", "--seed", "1"], ["report", "--seed", "1"],
    ["simulate", "--threads", "2"], ["estimate", "--threads", "2"], ["bootstrap", "--threads", "2"],
])
def test_flags_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_ces_monte_carlo_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "montecarlo:\n  replications: 1\n  dgp:" + CES_DGP)
    assert main(["montecarlo", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "technology" in capsys.readouterr().err
    assert not (tmp_path / "out" / "mc.csv").exists()


def test_simulation_the_solver_cannot_clear_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "simulate: {sigma_eta: 50, n: 5, t_periods: 3}\n")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: simulate: ") and "static input solver failed" in err
    assert not (tmp_path / "out" / "panel.csv").exists()


def test_ces_panels_can_still_be_simulated(tmp_path):
    config = write_config(tmp_path, "simulate:" + CES_DGP)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "panel.csv").exists()


def test_tables_round_trip_firm_ids_that_need_quotes(tmp_path, small_panel):
    # a comma, a quote and a leading space: load_csv reads them, so report must find them
    data = tmp_path / "panel.csv"
    write_csv(small_panel[0], data)
    with open(data, newline="") as fh:
        rows = list(csv.reader(fh))
    names = {}
    for row in rows[1:]:
        i = names.setdefault(row[0], len(names))
        row[0] = [f"Acme, Inc {i:02d}", f'The "{i:02d}" Co', f" f{i:02d}"][i % 3]
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    est, rep = tmp_path / "est", tmp_path / "rep"
    assert main(["estimate", "--data", str(data), "--out", str(est)]) == 0
    argv = ["--data", str(data), "--params", str(est / "params.csv"), "--latents", str(est / "latents.csv")]
    assert main(["report", *argv, "--out", str(rep)]) == 0
    keys = {(row[0], row[1]) for row in rows[1:]}
    for table in (est / "latents.csv", rep / "elasticities.csv"):
        with open(table, newline="") as fh:
            assert {(row[0], row[1]) for row in list(csv.reader(fh))[1:]} == keys


# -- the sieve's report -------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_csv(tmp_path_factory):
    """The CI smoke panel: n = 40 firms over 6 years at seed 3."""
    out = tmp_path_factory.mktemp("smoke")
    config = write_config(out, "simulate: {n: 40, t_periods: 6}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", config, "--seed", "3", "--out", str(out / "sim")]) == 0
    return str(out / "sim" / "panel.csv")


def fit_lines(out) -> list[str]:
    return [line for line in (out / "report.txt").read_text().splitlines() if " objective " in line]


def sieve_with(monkeypatch, *, degrees, unconverged=None):
    """``cli.sieve_estimate`` with GCV's picks set to ``degrees`` (phi, omega), and one record's ``converged`` cleared."""
    real_gcv = sieve.gcv_select_degree
    monkeypatch.setattr(sieve, "gcv_select_degree", lambda target, inputs, candidates, intercept: (
        degrees[intercept], *real_gcv(target, inputs, candidates, intercept=intercept)[1:]))
    real = sieve.sieve_estimate

    def run(*args, **kwargs):
        result = real(*args, **kwargs)
        if unconverged is not None:
            record = dataclasses.replace(getattr(result, unconverged), converged=False)
            result = dataclasses.replace(result, **{unconverged: record})
        return result

    monkeypatch.setattr(cli, "sieve_estimate", run)


def test_a_sieve_of_degree_one_names_the_refinement_system_once(smoke_csv, tmp_path, capsys):
    assert main(["estimate", "--data", smoke_csv, "--out", str(tmp_path / "par")]) == 0
    assert main(["estimate", "--law", "sieve", "--data", smoke_csv, "--out", str(tmp_path / "sieve")]) == 0
    (system,) = fit_lines(tmp_path / "sieve")
    assert system == fit_lines(tmp_path / "par")[-1] and system.startswith("system objective ")
    assert system in capsys.readouterr().out


def test_a_mixed_degree_sieve_reports_its_own_step3_and_the_refinement(smoke_csv, tmp_path, monkeypatch):
    sieve_with(monkeypatch, degrees=(1, 2))
    assert main(["estimate", "--law", "sieve", "--data", smoke_csv, "--out", str(tmp_path / "sieve")]) == 0
    step3, system = fit_lines(tmp_path / "sieve")
    assert step3.startswith("step3 objective ") and system.startswith("system objective ")
    assert step3.split()[2] != system.split()[2]


@pytest.mark.parametrize(("degrees", "unconverged"), [
    ((1, 1), "step2"), ((1, 2), "step2"), ((1, 2), "step3"), ((2, 1), "step2"), ((2, 1), "step3"),
])
def test_every_sieve_fit_that_did_not_converge_exits_4(smoke_csv, tmp_path, monkeypatch, capsys, degrees, unconverged):
    sieve_with(monkeypatch, degrees=degrees, unconverged=unconverged)
    assert main(["estimate", "--law", "sieve", "--data", smoke_csv, "--out", str(tmp_path / "sieve")]) == 4
    assert "converged False" in capsys.readouterr().out
