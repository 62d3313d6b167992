#!/usr/bin/env python3
"""Write ``reference.json``: the answer of every pool input of every workload.

    python3 bench/make_reference.py

Run from the root of a checkout.  Each op's parameter vector is computed
once with the code in ``src/`` and stored with the tolerance ``run.py``
checks it against.  Regenerate only when a change is meant to alter the
estimator's answers.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import env  # noqa: E402

#: |value - reference| may not exceed ATOL + RTOL * |reference| in any entry
ATOL = 1e-4
RTOL = 1e-4


def main() -> int:
    env.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tempfile

    import workloads

    out = {"tolerance": {"atol": ATOL, "rtol": RTOL}, "environment": env.record(ROOT), "workloads": {}}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for name, wl in workloads.ALL.items():
        out["workloads"][name] = {}
        for size in ("full", "smoke"):
            with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as workdir:
                state = wl.setup(size, workdir)
                refs = {key: wl.run(state, key).tolist() for key in wl.pool(size)}
            out["workloads"][name][size] = refs
            print(f"{name}/{size}: {len(refs)} references", file=sys.stderr, flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
