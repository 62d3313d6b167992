#!/usr/bin/env python3
"""Benchmark of the prodsys estimator: one command, four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout; the library is imported from ``src/``.
One process drives the library with one op at a time (a closed loop with
one client), BLAS pinned to ``env.BLAS_THREADS`` threads and the process
bound to one CPU.

Each workload has a fixed pool of inputs with stored reference answers
(``reference.json``); ``--seed`` orders the pool.  The loop runs the
workload's fixed number of whole passes over the pool, sized so that it
lasts about the ``run_seconds`` of ``BENCHMARK.json``; every run therefore
has the same sample count.  Only a run so slow that the next pass would end
after ``CUT_FACTOR`` times ``--seconds`` stops early, and says so in the
detail line.  Every op's parameter vector is checked against its reference.

Times are reported in reference seconds.  Every call the benchmark makes
into the library is timed by ``yardstick.Clock``, and its wall time is
scaled by the speed of the host measured between calls, around it, with the
calibration kernel in ``yardstick.py``.  Raw wall times are in the detail
line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each input
twice, untraced and under the tracer (alternating which goes first), and
reports the per-layer metrics and the tracing overhead in wall seconds; its
spans are written to ``.bench_out/``.  ``--smoke`` runs one pass at tiny sizes.

The last line of standard output is the result as one JSON object; the
line before it holds the details (environment, tail percentile, per-op
times and failures).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import env  # noqa: E402

#: set-up repetitions per run; setup_s reports their median
SETUP_REPS = 3
#: fresh-interpreter imports per run; setup_s counts their median
IMPORT_REPS = 5
#: a run stops after the pass that would end beyond this many times --seconds
CUT_FACTOR = 4
#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
TAIL_BEYOND = 10
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one pass at tiny sizes")
    return p.parse_args(argv)


def tail(times):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  When no percentile at or
    above the median has that many samples beyond it, the maximum is returned
    with percentile 100 and zero samples beyond.
    """
    xs = sorted(times)
    i = len(xs) - 1 - TAIL_BEYOND
    if i >= 0 and (i + 1) / len(xs) >= 0.5:
        return xs[i], 100.0 * (i + 1) / len(xs), TAIL_BEYOND
    return xs[-1], 100.0, 0


class Checker:
    """Compares op outputs with the stored reference vectors."""

    def __init__(self, reference: dict, workload: str, size: str):
        import numpy as np

        self.np = np
        self.atol = reference["tolerance"]["atol"]
        self.rtol = reference["tolerance"]["rtol"]
        self.refs = {k: np.asarray(v, dtype=float) for k, v in reference["workloads"][workload][size].items()}
        self.max_abs_dev = 0.0

    def failure(self, key: str, vec) -> str | None:
        """None if ``vec`` matches the reference for ``key``, else the reason."""
        np = self.np
        ref = self.refs[key]
        vec = np.asarray(vec, dtype=float)
        if vec.shape != ref.shape:
            return f"shape {vec.shape} != reference {ref.shape}"
        if not np.all(np.isfinite(vec)):
            return "non-finite output"
        dev = np.abs(vec - ref)
        self.max_abs_dev = max(self.max_abs_dev, float(dev.max(initial=0.0)))
        if np.any(dev > self.atol + self.rtol * np.abs(ref)):
            return f"differs from reference by {float(dev.max()):.3e}"
        return None


class Loop:
    """Closed loop of ops over whole passes of the pool.

    An op's time is the time of its calls into the library, counted by the
    clock (``yardstick.Clock``); :meth:`finish` fills it in after the loop.
    """

    def __init__(self, workload, state, pool, seed: int, checker: Checker, clock):
        import numpy as np

        self.workload, self.state, self.pool, self.checker, self.clock = workload, state, pool, checker, clock
        self.rng = np.random.default_rng(seed)
        self.records: list[dict] = []
        self.cut = False

    def one(self, key: str) -> dict:
        first = len(self.clock.calls)
        try:
            vec = self.workload.run(self.state, key, self.clock)
            reason = self.checker.failure(key, vec)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, recorded by type
            reason = f"raised {type(exc).__name__}: {exc}"
        record = {"key": key, "calls": (first, len(self.clock.calls)), "failure": reason}
        self.records.append(record)
        return record

    def finish(self) -> None:
        """Give every record its wall (``s``) and reference (``ref_s``) seconds."""
        for record in self.records:
            record["s"], record["ref_s"] = self.clock.seconds(*record.pop("calls"))

    def passes(self, count: int, budget_s: float):
        """Yield the pool keys of each of ``count`` passes in seed order.

        Stops early, setting ``cut``, only when the next pass would end after
        ``budget_s`` at the mean pass time so far.
        """
        start = time.perf_counter()
        for done in range(1, count + 1):
            yield [self.pool[i] for i in self.rng.permutation(len(self.pool))]
            elapsed = time.perf_counter() - start
            if done < count and elapsed + elapsed / done > budget_s:
                self.cut = True
                return


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy and prodsys.

    The child times its own imports, so interpreter start-up and the wait for
    its exit are not counted.
    """
    code = "import time; t = time.perf_counter(); import numpy, prodsys; print(time.perf_counter() - t)"
    env_vars = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env_vars, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def fresh_import(clock) -> None:
    """Count one fresh interpreter's import time on ``clock``."""
    seconds = fresh_import_s()
    end = time.perf_counter()
    clock.count(end - seconds, end)


def repeat(clock, fn, reps: int) -> tuple[object, list[tuple[int, int]]]:
    """Call ``fn(clock)`` ``reps`` times; the last result and each call's range of clock calls."""
    ranges = []
    for _ in range(reps):
        first = len(clock.calls)
        result = fn(clock)
        ranges.append((first, len(clock.calls)))
    return result, ranges


def run_plain(wl, size, args, checker, import_s, workdir_root, clock):
    # imports can only be repeated in fresh interpreters, run one at a time
    _, import_calls = repeat(clock, fresh_import, IMPORT_REPS)
    state, setup_calls = repeat(clock, lambda c: wl.setup(size, tempfile.mkdtemp(dir=workdir_root), c), SETUP_REPS)
    loop = Loop(wl, state, wl.pool(size), args.seed, checker, clock)
    t0 = time.perf_counter()
    for keys in loop.passes(wl.passes(size), CUT_FACTOR * args.seconds):
        for key in keys:
            loop.one(key)
    loop_s = time.perf_counter() - t0
    loop.finish()
    import_wall_s, import_ref_s = zip(*(clock.seconds(*r) for r in import_calls))
    setup_wall_s, setup_ref_s = zip(*(clock.seconds(*r) for r in setup_calls))

    times = [r["ref_s"] for r in loop.records]
    failed = sum(r["failure"] is not None for r in loop.records)
    tail_value, tail_pct, tail_beyond = tail(times)
    values = {
        "setup_s": statistics.median(import_ref_s) + statistics.median(setup_ref_s),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": len(times) / sum(times),
        "ok_frac": 1.0 - failed / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = [r["s"] for r in loop.records]
    detail = {
        "import_s": import_s,
        "fresh_import_s": list(import_wall_s),
        "fresh_import_ref_s": list(import_ref_s),
        "setup_reps_s": list(setup_wall_s),
        "setup_reps_ref_s": list(setup_ref_s),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "samples": len(times),
        "cut": loop.cut,
        "loop_s": loop_s,
        "wall_op_p50_s": statistics.median(wall),
        "wall_ops_per_s": len(wall) / sum(wall),
        "factor_median": statistics.median(clock.factor(i) for i in range(len(clock.calls))),
    }
    units = dict(END_TO_END)
    return {k: metric(v, units[k]) for k, v in values.items()}, loop.records, detail


def run_traced(wl, size, args, checker, workdir_root, clock):
    from layers import per_layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.phase, tracer.op = "setup", -1
    with tracer:
        bindings = tracer.bindings()
        state = wl.setup(size, tempfile.mkdtemp(dir=workdir_root))
    tracer.phase = "ops"

    loop = Loop(wl, state, wl.pool(size), args.seed, checker, clock)
    plain, traced, top_s = [], [], []
    n = 0
    # every op runs twice here, untraced and traced
    for keys in loop.passes(wl.passes(size), 2 * CUT_FACTOR * args.seconds):
        for key in keys:
            tracer.op = n
            for under_tracer in ((True, False) if n % 2 == 0 else (False, True)):
                if under_tracer:
                    tracer.top_s = 0.0
                    with tracer:
                        record = loop.one(key)
                    traced.append(record)
                    top_s.append(tracer.top_s)
                else:
                    plain.append(loop.one(key))
            n += 1
    loop.finish()
    covers = [top / r["s"] for top, r in zip(top_s, traced)]

    # wall seconds, so that no scaling can hide the tracer's cost; each pair
    # runs back to back, so host drift mostly cancels in the difference
    values = tracer.metrics(n)
    plain_s = sum(r["s"] for r in plain) / n
    overhead = sum(r["s"] for r in traced) / n - plain_s
    values["bench.trace.overhead_s"] = overhead
    values["bench.trace.overhead_frac"] = overhead / plain_s
    values["bench.trace.top_cover"] = min(covers)

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}.json.gz"
    tracer.write_spans(spans_path)

    units = {name: unit for name, unit, _ in per_layer_metrics()}
    detail = {
        "samples": n,
        "cut": loop.cut,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "top_cover_per_op": covers,
        "bindings_patched": [".".join(b) for b in bindings],
    }
    return {k: metric(values[k], units[k]) for k in units}, loop.records, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    reference_path = BENCH_DIR / "reference.json"
    if not (src / "prodsys" / "__init__.py").is_file():
        print(f"error: no prodsys sources under {src}", file=sys.stderr)
        return 2
    try:
        env.pin_threads()
        env.pin_cpu()
    except env.EnvironmentRefused as exc:
        print(f"error: refusing to run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from yardstick import Clock, Yardstick

    import_s = time.perf_counter() - T_START
    try:
        env.check_blas_threads()
    except env.EnvironmentRefused as exc:
        print(f"error: refusing to run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.ALL:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.ALL)}", file=sys.stderr)
        return 2
    wl = workloads.ALL[args.workload]
    size = "smoke" if args.smoke else "full"
    checker = Checker(json.loads(reference_path.read_text()), wl.name, size)

    workdir_root = ROOT / WORK_DIR
    workdir_root.mkdir(exist_ok=True)
    workdir_root = tempfile.mkdtemp(dir=workdir_root)
    try:
        if args.trace:
            metrics, records, detail = run_traced(wl, size, args, checker, workdir_root, Clock(Yardstick()))
        else:
            metrics, records, detail = run_plain(wl, size, args, checker, import_s, workdir_root, Clock(Yardstick()))
    finally:
        shutil.rmtree(workdir_root, ignore_errors=True)

    failures = [r for r in records if r["failure"] is not None]
    detail.update({
        "workload": wl.name,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
        "environment": env.record(ROOT),
        "tolerance": {"atol": checker.atol, "rtol": checker.rtol},
        "max_abs_dev": checker.max_abs_dev,
        "ops": [[r["key"], r["s"], r["ref_s"]] for r in records],
        "failures": failures,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
