"""The four benchmark workloads.

Each workload has a fixed pool of inputs whose reference answers are stored
in ``reference.json``; the run's seed only orders the pool.  ``setup``
builds what the timed loop needs (panels, CSV files, point estimates) and
``run`` performs one op on one pool input and returns its parameter vector.
A run makes a fixed number of whole passes over the pool (``passes`` in
each size), so every run has the same sample count whatever the host's
speed; the full counts make a timed loop of about 20 s on the reference host.

Every call into the library goes through ``call(fn, *args, **kwargs)``.
The timed run passes a clock there, which times each call and samples the
host's speed between calls; elsewhere ``call`` just calls.  Library
functions are looked up through their modules at call time, so the tracer's
wrappers are seen.  Sizes: ``full`` is the benchmark, ``smoke`` the
seconds-long self-test.
"""

from __future__ import annotations

import os

import numpy as np

from prodsys import bootstrap, panel, partialid, sieve, simulate, translog


def direct(fn, *args, **kwargs):
    """The untimed ``call``."""
    return fn(*args, **kwargs)


class Workload:
    name = ""
    why = ""
    sizes: dict[str, dict] = {}

    def pool(self, size: str) -> list[str]:
        raise NotImplementedError

    def passes(self, size: str) -> int:
        return self.sizes[size]["passes"]

    def setup(self, size: str, workdir: str, call=direct):
        raise NotImplementedError

    def run(self, state, key: str, call=direct) -> np.ndarray:
        raise NotImplementedError


class EstimateCli(Workload):
    """``prodsys estimate --data``: load a CSV panel, run the default estimator."""

    name = "estimate_cli"
    why = "load_csv plus estimate() with refine=system on n=4000 firms: the applied user's main call"
    sizes = {"full": {"n": 4000, "seeds": (101, 102, 103), "passes": 2},
             "smoke": {"n": 40, "seeds": (101, 102), "passes": 1}}

    def pool(self, size):
        return [f"panel-{s}" for s in self.sizes[size]["seeds"]]

    def setup(self, size, workdir, call=direct):
        n = self.sizes[size]["n"]
        paths = {}
        for seed in self.sizes[size]["seeds"]:
            dataset, _ = call(simulate.generate_panel, simulate.benchmark_config(n=n, seed=seed), seed=seed)
            path = os.path.join(workdir, f"panel-{seed}.csv")
            call(panel.write_csv, dataset, path)
            paths[f"panel-{seed}"] = path
        return paths

    def run(self, state, key, call=direct):
        dataset, _ = call(panel.load_csv, state[key])
        est = call(translog.estimate, dataset)
        return call(bootstrap.pack_parameters, est.params, est.laws)


class Bootstrap(Workload):
    """One wild-bootstrap replicate on a fixed n=400 panel."""

    name = "bootstrap"
    why = "one bootstrap_replicate on n=400: the estimator layers on a tenth of the rows, plus synthetic_outcomes"
    sizes = {"full": {"n": 400, "panel_seed": 201, "draws": 40, "passes": 1},
             "smoke": {"n": 40, "panel_seed": 201, "draws": 3, "passes": 1}}
    weight_seed = 202

    def pool(self, size):
        return [f"draw-{b}" for b in range(self.sizes[size]["draws"])]

    def setup(self, size, workdir, call=direct):
        cfg = self.sizes[size]
        seed = cfg["panel_seed"]
        dataset, _ = call(simulate.generate_panel, simulate.benchmark_config(n=cfg["n"], seed=seed), seed=seed)
        est = call(translog.estimate, dataset)
        residuals = call(bootstrap.compute_residuals, dataset, est)
        draws = np.random.SeedSequence(self.weight_seed).spawn(cfg["draws"])
        weights = call(lambda: {f"draw-{b}": bootstrap.mammen_weights(dataset.n_firms, seq)
                                for b, seq in enumerate(draws)})
        return dataset, est, residuals, weights

    def run(self, state, key, call=direct):
        dataset, est, residuals, weights = state
        return call(bootstrap.bootstrap_replicate, dataset, est, residuals, weights[key])


class ThreeStepMc(Workload):
    """One Monte Carlo replication of the paper's three-step estimator."""

    name = "threestep_mc"
    why = "generate_panel plus estimate(refine=none) on n=4000: the three steps as written, no system_refine"
    sizes = {"full": {"n": 4000, "config_seed": 301, "replications": 40, "passes": 1},
             "smoke": {"n": 40, "config_seed": 301, "replications": 3, "passes": 1}}

    def pool(self, size):
        cfg = self.sizes[size]
        return [f"rep-{cfg['config_seed'] + r}" for r in range(cfg["replications"])]

    def setup(self, size, workdir, call=direct):
        cfg = self.sizes[size]
        return call(simulate.benchmark_config, n=cfg["n"], seed=cfg["config_seed"])

    def run(self, state, key, call=direct):
        dataset, _ = call(simulate.generate_panel, state, seed=int(key.split("-")[1]))
        est = call(translog.estimate, dataset, translog.EstimateOptions(refine="none"))
        return call(bootstrap.pack_parameters, est.params, est.laws)


class SievePartialId(Workload):
    """Series laws picked by GCV, then the moment-inequality identified set."""

    name = "sieve_partialid"
    why = "sieve_estimate with GCV over degrees 2-3, then identified_set, on n=200 panels with markup 1.2"
    # an odd pool puts the median op inside one panel's cluster of times
    sizes = {"full": {"n": 200, "seeds": (401, 402, 403, 404, 405), "passes": 2},
             "smoke": {"n": 40, "seeds": (402, 405), "passes": 1}}
    markup = 1.2
    degrees = (2, 3)

    def pool(self, size):
        return [f"panel-{s}" for s in self.sizes[size]["seeds"]]

    def setup(self, size, workdir, call=direct):
        n = self.sizes[size]["n"]
        return {
            f"panel-{seed}": call(simulate.generate_panel,
                                  simulate.benchmark_config(n=n, seed=seed, markup=self.markup), seed=seed)[0]
            for seed in self.sizes[size]["seeds"]
        }

    def run(self, state, key, call=direct):
        dataset = state[key]
        est = call(sieve.sieve_estimate, dataset, degree="auto", degrees=self.degrees)
        grid = call(partialid.default_grid, est.params)
        idset = call(partialid.identified_set, dataset, partialid.MomentInequalityConfig(grid=grid))
        p = est.params
        box = [v for axis in partialid.GRID_AXES for v in idset.bounding_box[axis]]
        return np.concatenate((
            [p.beta_k, p.beta_kk, p.beta_l, p.beta_m, p.beta_0, p.theta],
            [est.degree_phi, est.degree_omega], est.step2.coef, est.step3.coef,
            [idset.volume_fraction], box,
        ))


WORKLOAD_CLASSES = (EstimateCli, Bootstrap, ThreeStepMc, SievePartialId)
ALL = {cls.name: cls() for cls in WORKLOAD_CLASSES}
