"""Command-line output tables."""

import types

import numpy as np

from prodsys.bootstrap import parameter_names
from prodsys.cli import _param_rows
from prodsys.panel import PanelDataset
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
