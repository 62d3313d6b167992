#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workload W ...] [--seeds 1 2 ...] [--trace-seed N] [--out FILE] [--compare FILE]

Run from the root of a checkout.  Each run is ``python3 bench/run.py`` with
the ``run_seconds`` of ``BENCHMARK.json``, one at a time.  For every
workload and end-to-end metric the table gives the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread
``(q3 - q1) / median``, marked ``ok`` when it is below a third of the
metric's bound.  The unscaled ``wall_op_p50_s`` of the detail line gets the
same summary, for comparison.  ``--trace-seed`` adds one traced run per
workload.  ``--out`` writes every value to a JSON file.  ``--compare`` reads
such a file from an earlier set and checks that no median is worse than the
earlier one by more than the metric's bound.  The exit code is 1 if a spread
exceeds a third of its bound or a median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, detail)`` from its last two lines."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    detail["run_wall_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), detail


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    p.add_argument("--compare")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "seeds": args.seeds, "claim": None, "workloads": {}}
    all_ok = True
    for workload in args.workload or names:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"failed": sum(r["failed"] for r, _ in runs), "attempted": sum(r["attempted"] for r, _ in runs),
                 "op_tail_percentiles": [d["op_tail_percentile"] for _, d in runs],
                 "samples": [d["samples"] for _, d in runs],
                 "run_wall_s": [d["run_wall_s"] for _, d in runs],
                 "wall_op_p50_s": summarize([d["wall_op_p50_s"] for _, d in runs]),
                 "op_times": [d["ops"] for _, d in runs], "metrics": {}}
        report["environment"] = runs[0][1]["environment"]
        print(f"{workload}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"longest run {max(entry['run_wall_s']):.1f} s")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r, _ in runs])
            entry["metrics"][name] = s
            ok = s["spread"] < bound / 3
            line = (f"  {name:12s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                    f"spread {s['spread']:7.4f}  bound/3 {bound / 3:7.4f}  {'ok' if ok else 'WIDE'}")
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                worse = (s["median"] - before) / before if before else 0.0
                worse = worse if better[name] == "lower" else -worse
                s["worse_than_earlier"] = worse
                ok &= worse <= bound
                line += f"  worse than earlier by {worse:+.4f}  {'ok' if worse <= bound else 'WORSE'}"
            all_ok &= ok
            print(line)
        w = entry["wall_op_p50_s"]
        print(f"  unscaled op_p50_s median {w['median']:.6g}  spread {w['spread']:.4f}")
        if args.trace_seed is not None:
            result, detail = run_once(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "failed": result["failed"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                               "top_cover_per_op": detail["top_cover_per_op"]}
            m = entry["traced"]["metrics"]
            print(f"  traced: overhead {m['bench.trace.overhead_s']:.4f} s/op "
                  f"({m['bench.trace.overhead_frac']:.2%}), top-span cover {m['bench.trace.top_cover']:.4f}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
