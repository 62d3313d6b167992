"""Self-tests of the benchmark; they run its smoke mode, so they take under a minute.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced and two traced smoke runs."""
    return {w: {"plain": smoke(w, 0), "traced": [smoke(w, 1), smoke(w, 1)]} for w in WORKLOADS}


def test_every_metric_is_declared_with_its_unit(runs):
    declared = {"end_to_end": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
    for w, r in runs.items():
        for kind, (result, _) in (("end_to_end", r["plain"]), ("per_layer", r["traced"][0])):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            metrics = result["metrics"]
            assert set(metrics) == set(declared[kind]), (w, kind)
            for name, m in metrics.items():
                assert NAME.fullmatch(name), name
                assert m["unit"] == declared[kind][name], (w, name)


def test_smoke_ops_pass_the_output_check(runs):
    for w, r in runs.items():
        for result, detail in [r["plain"], *r["traced"]]:
            assert result["correct"] and result["failed"] == 0, (w, detail["failures"])


def test_every_run_has_the_fixed_sample_count(runs):
    import workloads

    for w, r in runs.items():
        wl = workloads.ALL[w]
        expected = wl.passes("smoke") * len(wl.pool("smoke"))
        result, detail = r["plain"]
        assert result["attempted"] == expected and not detail["cut"], (w, result["attempted"])
        for result, detail in r["traced"]:
            assert detail["samples"] == expected and not detail["cut"], (w, detail["samples"])


def test_every_per_layer_metric_names_what_it_should_move():
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    table = layers.links()
    for m in BENCHMARK["per_layer"]:
        link = table[m["name"]]
        if m["name"].startswith("bench.trace."):
            continue  # tracer self-measurement; end-to-end runs are untraced
        assert link["moves"], m["name"]
        for target in link["moves"]:
            assert target["workload"] in WORKLOADS and target["metric"] in e2e, (m["name"], target)
        assert set(link["unchanged"]) <= set(WORKLOADS)


def test_traced_counts_repeat_exactly(runs):
    counted = {m["name"] for m in BENCHMARK["per_layer"]
               if m["unit"] in ("count", "index", "ratio") and not m["name"].startswith("bench.trace.")}
    for w, r in runs.items():
        (first, _), (second, _) = r["traced"]
        for name in counted:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], (w, name)


def test_top_level_spans_cover_op_time(runs):
    for w, r in runs.items():
        for result, detail in r["traced"]:
            assert result["metrics"]["bench.trace.top_cover"]["value"] >= 0.95, (w, detail["top_cover_per_op"])


def test_every_layer_is_reached_by_some_workload(runs):
    for layer in layers.LAYERS:
        if layer.ops_in:
            calls = {w: runs[w]["traced"][0][0]["metrics"][f"{layer.name}.calls"]["value"] for w in WORKLOADS}
            assert {w for w, c in calls.items() if c > 0} == set(layer.ops_in), (layer.name, calls)
        if layer.setup_in:
            setup = {w: runs[w]["traced"][0][0]["metrics"][f"{layer.name}.setup_s"]["value"] for w in WORKLOADS}
            assert {w for w, s in setup.items() if s > 0} == set(layer.setup_in), (layer.name, setup)


def test_tracer_patches_every_binding_site_and_restores_it():
    import prodsys  # noqa: F401 - loads every module the tracer scans
    from prodsys import bootstrap, optim, sieve, translog
    from tracer import Tracer

    sites = [(bootstrap, "step2_gmm"), (bootstrap, "step3_core"), (bootstrap, "system_refine"),
             (sieve, "step2_gmm"), (sieve, "step3_nls"), (sieve, "system_refine"),
             (sieve, "minimize_gmm"), (sieve, "minimize_nls"),
             (translog, "minimize_gmm"), (translog, "minimize_nls"),
             (optim, "finite_diff_jacobian"), (optim, "_lm_single")]
    before = {(m.__name__, a): getattr(m, a) for m, a in sites}
    with Tracer():
        for m, a in sites:
            assert getattr(m, a) is not before[(m.__name__, a)], f"{m.__name__}.{a} not wrapped"
        assert sieve.SieveBasis.evaluate.__wrapped_layer__ == "sieve.SieveBasis.evaluate"
    for m, a in sites:
        assert getattr(m, a) is before[(m.__name__, a)], f"{m.__name__}.{a} not restored"
    assert not hasattr(sieve.SieveBasis.evaluate, "__wrapped_layer__")


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)
    values = [float(v) for v in range(32)]
    value, percentile, beyond = tail(values)
    assert beyond == 10 and sum(v > value for v in values) == 10 and percentile == 100.0 * 22 / 32


def test_yardstick_never_calls_the_library():
    import prodsys  # noqa: F401
    from tracer import Tracer
    from yardstick import Yardstick

    yard = Yardstick()
    with Tracer() as tracer:
        yard.time()
    assert not tracer.spans
