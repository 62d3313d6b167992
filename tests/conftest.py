"""Shared simulated panels, built once per session, and the Hypothesis profiles."""

import os

import numpy as np
import pytest
from hypothesis import settings

from prodsys.simulate import DgpConfig, benchmark_config, generate_panel
from prodsys.translog import estimate

# CI runs the same examples every time and prints a reproducer on failure;
# local runs stay random.  GitHub Actions sets CI.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def bench():
    """Benchmark economy, moderate size: (dataset, truth, config)."""
    cfg = benchmark_config(n=200, t_periods=10, seed=7)
    ds, truth = generate_panel(cfg, seed=7)
    return ds, truth, cfg


@pytest.fixture(scope="session")
def bench_est(bench):
    ds, _, _ = bench
    return estimate(ds)


@pytest.fixture(scope="session")
def noiseless():
    """Same economy with all innovation scales at zero: (dataset, truth, config)."""
    cfg = DgpConfig(n=150, t_periods=8, sigma_omega=0.0, sigma_phi=0.0, sigma_eta=0.0, seed=3)
    ds, truth = generate_panel(cfg, seed=3)
    return ds, truth, cfg


@pytest.fixture(scope="session")
def small_panel():
    """Tiny noisy panel for cheap smoke paths: (dataset, truth, config)."""
    cfg = benchmark_config(n=40, t_periods=6, seed=11)
    ds, truth = generate_panel(cfg, seed=11)
    return ds, truth, cfg


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
