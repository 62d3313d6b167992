"""Thread pinning and the environment record of a benchmark run.

``pin_threads`` must run before numpy is imported: OpenBLAS reads its
thread count from the environment when the library loads.  ``pin_cpu``
keeps the run on one CPU, so that the yardstick samples the CPU the ops
and the import subprocesses run on.
"""

from __future__ import annotations

import ctypes
import os
import platform
import socket
import sys
from pathlib import Path

#: BLAS threads for every run; one keeps timings free of thread scheduling
BLAS_THREADS = 1
#: the harness drives the library from this many processes (itself)
PROCESSES = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


#: CPUs the process could use before ``pin_cpu`` narrowed them
_available: set[int] | None = None


class EnvironmentRefused(RuntimeError):
    """The run would use more threads or processes than the machine has cores."""


def nproc() -> int:
    if _available is not None:
        return len(_available)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_cpu() -> int | None:
    """Bind this process, and the processes it starts, to its highest CPU."""
    global _available
    if not hasattr(os, "sched_setaffinity"):
        return None
    _available = os.sched_getaffinity(0)
    cpu = max(_available)
    os.sched_setaffinity(0, {cpu})
    return cpu


def pin_threads() -> None:
    """Fix the BLAS thread count before numpy loads; refuse if it exceeds ``nproc``."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    cores = nproc()
    if BLAS_THREADS > cores or PROCESSES > cores:
        raise EnvironmentRefused(
            f"{BLAS_THREADS} BLAS threads and {PROCESSES} process(es) requested, nproc is {cores}"
        )
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_reported() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be queried."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def check_blas_threads() -> int | None:
    """Refuse to run if the loaded BLAS uses more threads than ``nproc``."""
    reported = blas_threads_reported()
    if reported is not None and reported > nproc():
        raise EnvironmentRefused(f"BLAS reports {reported} threads, nproc is {nproc()}")
    return reported


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        if packed.exists():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def record(root: Path) -> dict:
    """Host, CPU, core count, interpreter, numpy and BLAS versions, threads, commit."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "host": socket.gethostname(),
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
        "processes": PROCESSES,
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(root),
    }
