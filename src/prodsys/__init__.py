"""Production-function system estimation with two-dimensional latent productivity."""

from .panel import (
    LagPairs,
    LoadReport,
    PanelDataset,
    build_lag_pairs,
    compute_shares,
    load_csv,
    write_csv,
)
from .translog import (
    EstimateOptions,
    ProductivityLaws,
    TranslogEstimate,
    TranslogParams,
    estimate,
    phi_proxy,
    step1_cost_share,
)
from .ces import CesEstimate, CesParams, ces_estimate, ces_phi_proxy
from .simulate import DgpConfig, SimTruth, generate_panel, benchmark_config, solve_static_inputs
from .sieve import SieveBasis, SieveEstimate, build_basis, gcv_select_degree, sieve_estimate
from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    mammen_weights,
    run_bootstrap,
)
from .partialid import (
    IdentifiedSet,
    MomentInequalityConfig,
    default_grid,
    estimate_propensity,
    identified_set,
)
from .diagnostics import (
    AggregateProductivity,
    ElasticityRecord,
    McStudyReport,
    aggregate_productivity,
    elasticities,
    monte_carlo_study,
)

__version__ = "0.1.0"

__all__ = [
    "LagPairs",
    "LoadReport",
    "PanelDataset",
    "build_lag_pairs",
    "compute_shares",
    "load_csv",
    "write_csv",
    "EstimateOptions",
    "ProductivityLaws",
    "TranslogEstimate",
    "TranslogParams",
    "estimate",
    "phi_proxy",
    "step1_cost_share",
    "CesEstimate",
    "CesParams",
    "ces_estimate",
    "ces_phi_proxy",
    "DgpConfig",
    "SimTruth",
    "generate_panel",
    "benchmark_config",
    "solve_static_inputs",
    "SieveBasis",
    "SieveEstimate",
    "build_basis",
    "gcv_select_degree",
    "sieve_estimate",
    "BootstrapConfig",
    "BootstrapResult",
    "mammen_weights",
    "run_bootstrap",
    "IdentifiedSet",
    "MomentInequalityConfig",
    "default_grid",
    "estimate_propensity",
    "identified_set",
    "AggregateProductivity",
    "ElasticityRecord",
    "McStudyReport",
    "aggregate_productivity",
    "elasticities",
    "monte_carlo_study",
    "__version__",
]
