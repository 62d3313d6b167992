"""Layers the traced run measures, the metrics it reports for them, and
which end-to-end metric each of those should move on which workload.

A layer is a public function of a ``prodsys`` module, named
``<module>.<function>`` (``<module>.<Class>.<method>`` for methods).  The
links are written down before any optimisation is measured: a change that
speeds up a layer should move the listed end-to-end metrics on the listed
workloads and leave every workload that does not run the layer unchanged.
"""

from __future__ import annotations

import dataclasses

WORKLOADS = ("estimate_cli", "bootstrap", "threestep_mc", "sieve_partialid")

#: end-to-end metrics an op-time saving in a layer shows up in
OP_METRICS = ("op_p50_s", "op_tail_s", "ops_per_s")


@dataclasses.dataclass(frozen=True)
class Layer:
    module: str
    function: str
    #: workloads whose timed ops call this layer
    ops_in: tuple[str, ...] = ()
    #: workloads whose set-up calls this layer (reported as ``setup_s``)
    setup_in: tuple[str, ...] = ()
    #: True for layers that run the Levenberg-Marquardt optimizer themselves
    drives_optimizer: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


REFINED = ("estimate_cli", "bootstrap", "sieve_partialid")  # run system_refine
SIEVE = ("sieve_partialid",)

LAYERS = (
    Layer("panel", "load_csv", ops_in=("estimate_cli",)),
    Layer("simulate", "generate_panel", ops_in=("threestep_mc",),
          setup_in=("estimate_cli", "bootstrap", "sieve_partialid")),
    Layer("simulate", "solve_static_inputs", ops_in=("threestep_mc",),
          setup_in=("estimate_cli", "bootstrap", "sieve_partialid")),
    Layer("translog", "step1_cost_share", ops_in=WORKLOADS),
    Layer("translog", "step2_gmm", ops_in=WORKLOADS, drives_optimizer=True),
    Layer("translog", "step3_nls", ops_in=("estimate_cli", "threestep_mc", "sieve_partialid")),
    Layer("translog", "step3_core", ops_in=WORKLOADS, drives_optimizer=True),
    Layer("translog", "system_refine", ops_in=REFINED, drives_optimizer=True),
    Layer("optim", "finite_diff_jacobian", ops_in=REFINED),
    Layer("bootstrap", "compute_residuals", setup_in=("bootstrap",)),
    Layer("bootstrap", "synthetic_outcomes", ops_in=("bootstrap",)),
    Layer("bootstrap", "bootstrap_replicate", ops_in=("bootstrap",)),
    Layer("sieve", "gcv_select_degree", ops_in=SIEVE),
    Layer("sieve", "sieve_step2_gmm", ops_in=SIEVE, drives_optimizer=True),
    Layer("sieve", "sieve_step3_nls", ops_in=SIEVE, drives_optimizer=True),
    Layer("sieve", "SieveBasis.evaluate", ops_in=SIEVE),
    Layer("sieve", "SieveBasis.evaluate_deriv", ops_in=SIEVE),
    Layer("partialid", "estimate_propensity", ops_in=SIEVE),
    Layer("partialid", "identified_set", ops_in=SIEVE),
)

FD_LAYER = "optim.finite_diff_jacobian"

#: per-op counters of every layer the ops call: (counter, unit, better)
OP_COUNTERS = (("calls", "count", "lower"), ("self_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))
#: extra per-op counters of layers that drive the optimizer
OPTIMIZER_COUNTERS = (
    ("starts", "count", "lower"),
    ("lm_iters", "count", "lower"),
    ("residual_evals", "count", "lower"),
    ("jacobian_evals", "count", "lower"),
    ("fd_residual_evals", "count", "lower"),
    ("fd_frac", "ratio", "lower"),
    ("winning_start", "index", "lower"),
)
#: tracer self-measurement: (name, unit, better)
TRACE_METRICS = (
    ("bench.trace.overhead_s", "s", "lower"),
    ("bench.trace.overhead_frac", "ratio", "lower"),
    ("bench.trace.top_cover", "ratio", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for layer in LAYERS:
        if layer.ops_in:
            out += [(f"{layer.name}.{c}", u, b) for c, u, b in OP_COUNTERS]
        if layer.drives_optimizer:
            out += [(f"{layer.name}.{c}", u, b) for c, u, b in OPTIMIZER_COUNTERS]
        if layer.setup_in:
            out.append((f"{layer.name}.setup_s", "s", "lower"))
    return out + list(TRACE_METRICS)


def links() -> dict[str, dict]:
    """Per-layer metric name -> what it should move and where it should not.

    ``moves`` lists ``{"workload", "metric"}`` pairs; ``unchanged`` lists the
    workloads on which a change confined to this layer predicts no change.
    """
    out: dict[str, dict] = {}
    for layer in LAYERS:
        counters = [c for c, _, _ in OP_COUNTERS]
        if layer.drives_optimizer:
            counters += [c for c, _, _ in OPTIMIZER_COUNTERS]
        for counter in counters if layer.ops_in else ():
            targets = ("peak_rss_mb",) if counter == "peak_rss_mb" else OP_METRICS
            out[f"{layer.name}.{counter}"] = {
                "moves": [{"workload": w, "metric": m} for w in layer.ops_in for m in targets],
                "unchanged": [w for w in WORKLOADS if w not in layer.ops_in],
            }
        if layer.setup_in:
            out[f"{layer.name}.setup_s"] = {
                "moves": [{"workload": w, "metric": "setup_s"} for w in layer.setup_in],
                "unchanged": [w for w in WORKLOADS if w not in layer.setup_in],
            }
    for name, _, _ in TRACE_METRICS:
        # the end-to-end runs are untraced, so tracer cost moves none of them
        out[name] = {"moves": [], "unchanged": list(WORKLOADS)}
    return out
