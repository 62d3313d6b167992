"""Span tracer that measures ``prodsys`` layers from outside the package.

The library imports functions by name (``from .translog import step2_gmm``),
so a layer function is bound in its defining module and again in every
module that imported it.  :meth:`Tracer.install` replaces every binding of
each layer function found in the loaded ``prodsys`` modules (for methods,
the class attribute) and :meth:`Tracer.uninstall` restores the originals.

Three optimizer entry points are wrapped for counting only, without spans:
``optim._lm_single`` (one call per start; it also sees every residual and
Jacobian evaluation) and every binding of ``minimize_nls``/``minimize_gmm``
(which start won).  Counts go to the innermost open layer span other than
``optim.finite_diff_jacobian``, whose own residual calls are counted as
finite-difference evaluations of that enclosing layer.

Spans live in memory as ``(layer, start, end, parent span, op)`` tuples and
are written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import resource
import sys
import time

from layers import FD_LAYER, LAYERS, OPTIMIZER_COUNTERS, Layer

_COUNTED_OPTIMIZERS = ("minimize_nls", "minimize_gmm")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    peak_rss_kb: int = 0
    starts: int = 0
    lm_iters: int = 0
    residual_evals: int = 0
    jacobian_evals: int = 0
    fd_residual_evals: int = 0
    optimizer_runs: int = 0
    winning_start_sum: int = 0


def _prodsys_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "prodsys" or name.startswith("prodsys."))]


class Tracer:
    """Per-layer spans and optimizer counts, split into set-up and op phases."""

    def __init__(self) -> None:
        self.layers: tuple[Layer, ...] = LAYERS
        self._index = {layer.name: i for i, layer in enumerate(self.layers)}
        self._fd = self._index[FD_LAYER]
        self.stats = {"setup": [LayerStats() for _ in self.layers],
                      "ops": [LayerStats() for _ in self.layers]}
        self.phase = "ops"
        self.op = -1
        self.top_s = 0.0  # summed duration of spans with no open parent
        self.spans: list = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._minimize_depth = 0

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _prodsys_modules()
        by_name = {m.__name__: m for m in modules}
        for i, layer in enumerate(self.layers):
            home = by_name[f"prodsys.{layer.module}"]
            owner_name, _, attr = layer.function.rpartition(".")
            if owner_name:  # a method: its one binding is the class attribute
                owner = getattr(home, owner_name)
                self._patch(owner, attr, self._span_wrapper(i, owner.__dict__[attr]))
            else:
                self._patch_everywhere(modules, getattr(home, attr), self._span_wrapper(i, getattr(home, attr)))
        optim = by_name["prodsys.optim"]
        self._patch(optim, "_lm_single", self._lm_wrapper(optim._lm_single))
        for name in _COUNTED_OPTIMIZERS:
            orig = getattr(optim, name)
            self._patch_everywhere(modules, orig, self._minimize_wrapper(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def bindings(self) -> list[tuple[str, str]]:
        """``(owner, attribute)`` of every binding currently replaced."""
        return [(getattr(owner, "__name__", repr(owner)), attr) for owner, attr, _ in self._patches]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patch(module, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _span_wrapper(self, index: int, orig):
        is_fd = index == self._fd

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if is_fd:
                owner = self._owner()
                if owner is not None:
                    owner.jacobian_evals += 1
            self._enter(index)
            try:
                return orig(*args, **kwargs)
            finally:
                self._exit()

        wrapper.__wrapped_layer__ = self.layers[index].name
        return wrapper

    def _enter(self, index: int) -> None:
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([span_id, index, time.perf_counter(), 0.0, _maxrss_kb(), 0])

    def _exit(self) -> None:
        end = time.perf_counter()
        rss = _maxrss_kb()
        span_id, index, start, child_s, rss0, child_rss = self._stack.pop()
        duration, grew = end - start, rss - rss0
        st = self.stats[self.phase][index]
        st.calls += 1
        st.self_s += duration - child_s
        st.peak_rss_kb += grew - child_rss
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent[5] += grew
            parent_id = parent[0]
        else:
            self.top_s += duration
            parent_id = -1
        self.spans[span_id] = (index, start, end, parent_id, self.op)

    def _owner(self) -> LayerStats | None:
        """Stats of the innermost open layer that is not the FD Jacobian."""
        for frame in reversed(self._stack):
            if frame[1] != self._fd:
                return self.stats[self.phase][frame[1]]
        return None

    # -- optimizer counts ---------------------------------------------------

    def _lm_wrapper(self, orig):
        @functools.wraps(orig)
        def wrapper(problem, x0, **kwargs):
            resid, jac = problem.residual, problem.jacobian

            def residual(x):
                owner = self._owner()
                if owner is not None:
                    owner.residual_evals += 1
                    if self._stack[-1][1] == self._fd:
                        owner.fd_residual_evals += 1
                return resid(x)

            def jacobian(x):
                owner = self._owner()
                if owner is not None:
                    owner.jacobian_evals += 1
                return jac(x)

            counted = dataclasses.replace(problem, residual=residual, jacobian=jacobian if jac else None)
            result = orig(counted, x0, **kwargs)
            owner = self._owner()
            if owner is not None:
                owner.starts += 1
                owner.lm_iters += result.n_iter
            return result

        return wrapper

    def _minimize_wrapper(self, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            # minimize_gmm calls minimize_nls; only the outer call records
            self._minimize_depth += 1
            try:
                result = orig(*args, **kwargs)
            finally:
                self._minimize_depth -= 1
            owner = self._owner()
            if self._minimize_depth == 0 and owner is not None:
                owner.optimizer_runs += 1
                owner.winning_start_sum += result.start_index
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics: op-phase counters per op, set-up self time per set-up."""
        out: dict[str, float] = {}
        per_op = 1.0 / max(n_ops, 1)
        for layer, st, setup in zip(self.layers, self.stats["ops"], self.stats["setup"]):
            if layer.ops_in:
                out[f"{layer.name}.calls"] = st.calls * per_op
                out[f"{layer.name}.self_s"] = st.self_s * per_op
                out[f"{layer.name}.peak_rss_mb"] = st.peak_rss_kb / 1024.0
            if layer.drives_optimizer:
                for counter, _, _ in OPTIMIZER_COUNTERS:
                    if counter == "fd_frac":
                        value = st.fd_residual_evals / st.residual_evals if st.residual_evals else 0.0
                    elif counter == "winning_start":
                        value = st.winning_start_sum / st.optimizer_runs if st.optimizer_runs else 0.0
                    else:
                        value = getattr(st, counter) * per_op
                    out[f"{layer.name}.{counter}"] = value
            if layer.setup_in:
                out[f"{layer.name}.setup_s"] = setup.self_s
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as gzipped JSON."""
        payload = {
            "layers": [layer.name for layer in self.layers],
            "fields": ["layer", "start", "end", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
        }
        with gzip.open(path, "wt") as out:
            json.dump(payload, out, separators=(",", ":"))
