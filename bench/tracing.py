"""In-memory spans around the calls the package's modules make into each other.

Every wrapped function is replaced, from outside the package, in each
``hawkesgeo`` module namespace that holds it, so calls made through a module
attribute (``em.fit`` calling ``_pair_response``, ``cli`` calling ``fit``, a
call-time ``from .geometry import ...``) all pass through the wrapper.  Calls
cached elsewhere, such as the subcommand table inside ``cli``, are not seen;
``cli_dispatch`` is wrapped instead and its span is named after the
subcommand.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("model", "em", "geometry", "spectral", "simulate", "diagnostics", "io", "cli")


# Counters get the call's arguments by parameter name and its return value.

def _count_pairs(counts, arguments, out):
    counts["model.pairs_built"] += int(out[0].size)


def _count_queries(counts, arguments, out):
    counts["model.intensities_at_queries"] += len(arguments["times"])


def _count_branching(counts, arguments, out):
    # H holds one response per stored pair and basis kernel: the attempts
    counts["em.branching_base"] += int(arguments["H"].size)
    counts["em.branching_kept"] += int(out[0].size)


def _count_fit(counts, arguments, out):
    counts["em.epochs"] += int(out.curve.size)
    counts["em.aborted_fits"] += int(out.aborted_epoch is not None)


def _count_simulated(counts, arguments, out):
    counts["simulate.events"] += out.N


def _count_written(counts, arguments, out):
    counts["io.bytes_written"] += os.path.getsize(arguments["path"])


def _count_exit(counts, arguments, out):
    counts["cli.nonzero_exits"] += int(out != 0)


# (module, function, span name, counter)
TARGETS = (
    ("model", "pair_indices", "model.pair_indices", _count_pairs),
    ("model", "_pair_response", "model.pair_response", None),
    ("model", "compensator", "model.compensator", None),
    ("model", "log_likelihood", "model.log_likelihood", None),
    ("model", "intensities_at", "model.intensities_at", _count_queries),
    ("em", "fit", "em.fit", _count_fit),
    ("em", "e_step", "em.e_step", None),
    ("em", "_branching_from_response", "em.branching", _count_branching),
    ("em", "_m_step_geometric", "em.m_step", None),
    ("em", "_m_step_frb", "em.m_step", None),
    ("geometry", "embedding_inner_loop", "geometry.inner_loop", None),
    ("geometry", "reception_gradient", "geometry.gradient", None),
    ("geometry", "reception_hessian", "geometry.hessian", None),
    ("spectral", "init_params", "spectral.init_params", None),
    ("spectral", "init_influence_guess", "spectral.init_influence_guess", None),
    ("spectral", "diffusion_embed", "spectral.diffusion_embed", None),
    ("simulate", "simulate_thinning", "simulate.thinning", _count_simulated),
    ("diagnostics", "split_eval", "diagnostics.split_eval", None),
    ("diagnostics", "hellinger_divergence", "diagnostics.hellinger", None),
    ("diagnostics", "background_qq", "diagnostics.background_qq", None),
    ("diagnostics", "kendall_distance_correlation", "diagnostics.kendall", None),
    ("diagnostics", "categorical_accuracy", "diagnostics.categorical_accuracy", None),
    ("io", "save_events_csv", "io.save_events_csv", _count_written),
    ("io", "load_events_csv", "io.load_events_csv", None),
    ("io", "load_counts_csv", "io.load_counts_csv", None),
    ("io", "discretize_counts", "io.discretize_counts", None),
    ("io", "save_model", "io.save_model", _count_written),
    ("io", "load_model", "io.load_model", None),
    ("io", "save_report", "io.save_report", _count_written),
    ("io", "load_report", "io.load_report", None),
    ("io", "write_embedding_csv", "io.write_embedding_csv", _count_written),
    ("io", "write_curve_csv", "io.write_curve_csv", _count_written),
    ("io", "write_qq_csv", "io.write_qq_csv", _count_written),
    ("cli", "cli_dispatch", "cli", _count_exit),
)


class Tracer:
    """Records spans ``[name, parent index, start, end]`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if name == "cli" else name
            sid = self.open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if counter is not None:
                counter(self.counts, signature.bind(*args, **kwargs).arguments, out)
            return out
        return wrapper

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][3] = time.perf_counter()

    def install(self) -> None:
        """Swap every target for its wrapper in all loaded package modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "hawkesgeo" or key.startswith("hawkesgeo.")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"hawkesgeo.{module_name}"], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def traced_pass(self, run) -> dict:
        """Run ``run()`` under a root span with every target wrapped.

        Returns the pass's per-layer totals.  A span's self time is its
        duration minus the durations of its direct children; a layer's self
        time sums that over the layer's spans, and the root span's self time
        is the benchmark's own code plus package code no target covers.
        """
        first = len(self.spans)
        self.counts = collections.Counter()
        self.install()
        root = self.open("bench.pass")
        try:
            run()
        finally:
            self.close(root)
            self.uninstall()
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans[1:]:
            child_time[parent - first] += end - start
        out: dict[str, float] = dict(self.counts)
        layer_self = {layer: 0.0 for layer in ("bench",) + LAYERS}
        for (name, parent, start, end), children in zip(spans, child_time):
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
            layer_self[name.split(".")[0]] += end - start - children
        wall = spans[0][3] - spans[0][2]
        base = out.get("em.branching_base", 0)
        out["em.branching_kept_ratio"] = out.get("em.branching_kept", 0) / base if base else 0.0
        for layer, value in layer_self.items():
            out[f"layer.{layer}.self_s"] = value
            out[f"layer.{layer}.share"] = value / wall
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path) -> None:
        """Write every span recorded so far as JSON lines."""
        with open(path, "w") as f:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                    "start": start, "end": end}) + "\n")


def median_metrics(per_pass: list[dict]) -> dict:
    keys = sorted({key for metrics in per_pass for key in metrics})
    return {key: statistics.median(m.get(key, 0.0) for m in per_pass) for key in keys}
