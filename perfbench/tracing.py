"""Span tracing for the benchmark's traced run.

The program has no span hooks of its own, so the benchmark installs
wrappers around public functions and methods at each layer boundary of
``repro`` (see ``BOUNDARIES``) for the duration of a traced unit and
restores the originals afterwards.  A span records its name, start,
end and parent; spans are kept in memory as flat arrays and written to
disk when the run ends.  A layer's self time is its spans' durations
minus the parts their child spans cover.

Wrappers only time and count calls: they pass arguments and results
through untouched, so a traced unit must reproduce the untraced unit's
outputs bit for bit (the benchmark checks that it does).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

#: (module, attribute path, layer).  Module-level functions are patched
#: in every loaded ``repro`` module that imported them by name; methods
#: are patched on the class that defines them.  ``simulator.cache``
#: spans are split at call time by the layer of their parent span.
BOUNDARIES = (
    ("repro.workload.wikipedia", "WikipediaTraceGenerator.constant_rate", "workload.gen"),
    ("repro.workload.wikipedia", "WikipediaTraceGenerator.warmup_accesses", "workload.gen"),
    ("repro.experiments.fleet", "build_cluster_tasks", "workload.gen"),
    ("repro.experiments.runner", "calibrate", "calibration.bench"),
    ("repro.calibration", "collect_device_metrics", "calibration.online"),
    ("repro.calibration", "device_parameters_from_metrics", "calibration.online"),
    ("repro.simulator.cluster", "Cluster.__init__", "simulator.build"),
    ("repro.simulator.cluster", "Cluster.warm_caches", "simulator.build"),
    ("repro.simulator.cluster", "Cluster.cache_state", "simulator.build"),
    ("repro.simulator.cluster", "Cluster.restore_cache_state", "simulator.build"),
    ("repro.simulator.cluster", "Cluster.schedule_arrivals", "simulator.kernel"),
    ("repro.simulator.cluster", "Cluster.run_until", "simulator.kernel"),
    ("repro.simulator.cluster", "Cluster.drain", "simulator.kernel"),
    ("repro.workload.ssbench", "OpenLoopDriver.run", "simulator.kernel"),
    ("repro.simulator.scanner", "MaintenanceScanner.advance", "simulator.scanner"),
    ("repro.simulator.cache", "LruCache.access", "simulator.cache"),
    ("repro.simulator.cache", "LruCache.access_many", "simulator.cache"),
    ("repro.simulator.cache", "LruCache.access_pairs", "simulator.cache"),
    ("repro.simulator.disk", "Disk.submit", "simulator.disk"),
    ("repro.simulator.disk", "Disk.submit_op", "simulator.disk"),
    ("repro.simulator.disk", "ServiceTimeSampler.sample", "simulator.disk"),
    ("repro.simulator.metrics", "MetricsRecorder.requests", "simulator.metrics"),
    ("repro.simulator.metrics", "MetricsRecorder.state", "simulator.metrics"),
    ("repro.simulator.metrics", "RequestTable.window", "simulator.metrics"),
    ("repro.simulator.metrics", "merge_recorder_states", "simulator.metrics"),
    ("repro.model.baselines", "build_model", "model.build"),
    ("repro.model.system", "LatencyPercentileModel.__init__", "model.build"),
    ("repro.model.baselines", "OdoprModel.__init__", "model.build"),
    ("repro.model.baselines", "NoWtaModel.__init__", "model.build"),
    ("repro.model.redundancy", "RedundantLatencyModel.__init__", "model.build"),
    ("repro.model.system", "LatencyPercentileModel.sla_percentile", "model.query"),
    ("repro.model.system", "LatencyPercentileModel.sla_percentiles", "model.query"),
    ("repro.model.system", "LatencyPercentileModel.latency_quantile", "model.query"),
    ("repro.model.redundancy", "RedundantLatencyModel.sla_percentile", "model.query"),
    ("repro.model.redundancy", "RedundantLatencyModel.sla_percentiles", "model.query"),
    ("repro.model.redundancy", "RedundantLatencyModel.latency_quantile", "model.query"),
    ("repro.model.whatif", "sla_met", "model.plan"),
    ("repro.model.whatif", "admission_rate", "model.plan"),
    ("repro.model.whatif", "devices_needed", "model.plan"),
    ("repro.laplace.inversion", "invert_cdf", "laplace.invert"),
    ("repro.distributions.grid", "grid_of", "distributions.grid"),
    ("repro.distributions.grid", "GridPMF.convolve", "distributions.grid"),
    ("repro.distributions.orderstats", "order_statistic", "distributions.grid"),
)

#: Every layer a span can be attributed to, in report order.
LAYERS = (
    "workload.gen",
    "calibration.bench",
    "calibration.online",
    "simulator.build",
    "simulator.kernel",
    "simulator.scanner",
    "simulator.cache.scan",
    "simulator.cache.request",
    "simulator.disk",
    "simulator.metrics",
    "model.build",
    "model.query",
    "model.plan",
    "laplace.invert",
    "distributions.grid",
)

#: Parent layer -> layer of an LRU call made under it.  LRU calls under
#: the scanner are background scan churn; under a cache warm-up they
#: are build work; anywhere else they serve a request.
_CACHE_LAYER_BY_PARENT = {
    "simulator.scanner": "simulator.cache.scan",
    "simulator.build": "simulator.build",
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class SpanTracer:
    """Install boundary wrappers, record spans, compute self time.

    Use as a context manager around each traced unit; spans accumulate
    across units.  ``clusters`` collects every
    :class:`~repro.simulator.cluster.Cluster` built while installed, so
    the caller can read their public counters afterwards.
    """

    def __init__(self) -> None:
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        #: Per span: index into BOUNDARIES (its name), layer, parent span
        #: (-1 at top level), start and end in perf_counter seconds.
        self.span_name = array("i")
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.clusters: list = []
        #: Outermost model constructions, and how many raised
        #: ``UnstableQueueError`` (a refusal, not a failure).
        self.model_builds = 0
        self.model_unstable = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.span_layer)

    def __enter__(self) -> "SpanTracer":
        from repro.queueing import UnstableQueueError

        self._unstable_error = UnstableQueueError
        for index, (module_name, path, layer) in enumerate(BOUNDARIES):
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrapper(original, index, layer, path == "Cluster.__init__")
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A function imported by name elsewhere lives on in each
            # importer's namespace: patch every repro module holding it.
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _wrapper(self, fn, name_id: int, layer: str, capture_cluster: bool):
        layer_id = self.layer_ids.get(layer)
        by_parent = (
            {self.layer_ids[p]: self.layer_ids[c] for p, c in _CACHE_LAYER_BY_PARENT.items()}
            if layer == "simulator.cache"
            else None
        )
        request_id = self.layer_ids["simulator.cache.request"]
        build_id = self.layer_ids["model.build"]
        names, layers, parents = self.span_name, self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            lid = layer_id
            if by_parent is not None:
                lid = by_parent.get(layers[parent], request_id) if parent >= 0 else request_id
            outermost_build = lid == build_id and (parent < 0 or layers[parent] != build_id)
            idx = len(layers)
            names.append(name_id)
            layers.append(lid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._unstable_error:
                if outermost_build:
                    tracer.model_unstable += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if outermost_build:
                    tracer.model_builds += 1
            if capture_cluster:
                tracer.clusters.append(args[0])
            return result

        return wrapper

    # ------------------------------------------------------------------
    def _durations(self):
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        return parent, dur

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer over every recorded span."""
        parent, dur = self._durations()
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        own = np.bincount(layer, weights=dur - children, minlength=len(LAYERS))
        return {name: float(own[i]) for i, name in enumerate(LAYERS)}

    def covered_seconds(self) -> float:
        """Total duration of top-level spans (time inside any layer)."""
        parent, dur = self._durations()
        return float(dur[parent < 0].sum())

    def write(self, path) -> None:
        """Write every recorded span (name table plus flat arrays)."""
        np.savez(
            path,
            names=np.asarray([f"{module}.{attr}" for module, attr, _ in BOUNDARIES]),
            layers=np.asarray(LAYERS),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
