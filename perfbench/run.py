"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is repeated and its median reported, one discarded unit absorbs the
first-in-process warm-up, then units run back to back until
``--seconds`` of host time are measured and their median is reported.
``hostprobe.probe`` runs before the first and after every set-up batch
and unit, and each time is scaled to the probe's reference speed by
the mean of the two probes around it (README.md, "Host noise", says
why); the raw times are in the detail line.  ``--trace 1`` alternates
untraced and traced units (set-up included in both) for the same time
and reports the per-layer metrics; traced outputs must equal the
untraced ones bit for bit.  Either mode checks the outputs and prints
a detail line, then, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``.perfbench-out/<workload>.spans.npz``.  If the program
raises, the traceback goes to standard error and the result line says
``"correct": false`` with the raising unit's operations failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up runs in SETUP_BATCHES batches, each repeating it for at least
#: SETUP_BATCH_S host seconds (once at least); a batch's mean is one
#: sample and setup_s is the median sample.
SETUP_BATCHES, SETUP_BATCH_S = 7, 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
COUNTERS = (
    ("simulator.events_per_req", "ratio"),
    ("simulator.disk_ops_per_req", "ratio"),
    ("simulator.scanner.touches_per_req", "ratio"),
    ("simulator.cache.index.hit_ratio", "ratio"),
    ("simulator.cache.meta.hit_ratio", "ratio"),
    ("simulator.cache.data.hit_ratio", "ratio"),
    ("model.builds", "count"),
    ("model.unstable", "ratio"),
    ("model.sla_err_pp", "pp"),
    ("laplace.inversions", "count"),
    ("laplace.repairs", "count"),
    ("laplace.unconverged_frac", "ratio"),
    ("distributions.evalcache.hit_ratio", "ratio"),
    ("distributions.evalcache.evictions", "count"),
    ("tracing.spans_per_unit", "count"),
)


def _layer_metric(layer: str) -> str:
    return f"{layer}.self_pct"


def per_layer_names(layers) -> list[tuple[str, str]]:
    """Every per-layer metric, in output order."""
    shares = [(_layer_metric(layer), "%") for layer in (*layers, "other")]
    return [*COUNTERS, *shares, ("tracing.overhead", "ratio")]


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples
    beyond it (when there are enough samples), and the sample count."""
    out = {"n": len(values), "p50": statistics.median(values)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            rank = min(len(values) - 1, math.ceil(pct / 100.0 * len(values)) - 1)
            out[f"p{pct:g}"] = sorted(values)[rank]
            break
    return out


class Bench:
    """Measure one workload object for one seed."""

    def __init__(self, workload, seed: int, seconds: float):
        import hostprobe
        import tracing
        import workloads

        self.hp = hostprobe
        self.wm = workloads
        self.tm = tracing
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.problems: list[str] = []
        #: Outputs of the first unit; later units are compared to them
        #: and dropped, since a fleet state holds tens of MB.
        self.first = None
        self.diverged: list[int] = []  # attempts of units that differed
        #: Inputs of the unit in progress and units completed, for the
        #: result of a run in which the program raised (:meth:`raised`).
        self.inputs = None
        self.done = 0

    # ------------------------------------------------------------------
    def _unit(self, inputs=None, tracer=None):
        """One unit, from a cold evalcache and a collected heap.

        With ``inputs=None`` the unit includes its own set-up (the form
        the traced run compares); ``tracer`` wraps the whole unit.
        """
        self.wm.evalcache.clear()  # cold, as in a fresh process
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.wm.RepairWarning)
            t0 = time.perf_counter()
            with tracer if tracer is not None else contextlib.nullcontext():
                if inputs is None:
                    inputs = self.wl.setup(self.seed)
                self.inputs = inputs
                unit = self.wl.run(inputs)
            dt = time.perf_counter() - t0
        self.done += 1
        unit.query_repairs += self.wm.count_repairs(caught)
        if self.first is None:
            self.first = unit.outputs
        elif not self.wm.same(unit.outputs, self.first):
            self.diverged.append(self.wl.attempts(inputs))
        unit.outputs = None
        return dt, unit

    def _warmup(self, inputs) -> None:
        self.inputs = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", self.wm.RepairWarning)
            self.wl.warmup(inputs)

    def _verify(self, inputs, units) -> tuple[int, int]:
        """Check the first unit's outputs (every other unit had to equal
        them) and return ``(attempted, failed)`` over all units."""
        failed, problems = self.wl.check(inputs, self.first)
        self.problems += problems[:20]
        if self.diverged:
            self.problems.append(
                f"{len(self.diverged)} units returned outputs other than the first unit's"
            )
        attempted = len(units) * self.wl.attempts(inputs)
        return attempted, min(attempted, failed * len(units) + sum(self.diverged))

    def _detail(self, units) -> dict:
        detail = {"workload": self.wl.name, "seed": self.seed, "units": len(units)}
        by_class: dict[str, list[float]] = {}
        for unit in units:
            for label, secs in unit.query_seconds.items():
                by_class.setdefault(label, []).extend(s * 1e3 for s in secs)
        if by_class:
            detail["query_ms"] = {label: tail(v) for label, v in sorted(by_class.items())}
            queries = sum(u.ops for u in units)
            detail["unconverged_frac"] = sum(u.unconverged_queries for u in units) / queries
        detail["repairs_per_unit"] = units[0].query_repairs
        if isinstance(self.wl, self.wm.Sweep):
            err, pairs = self.wl.sla_error(self.first)
            detail["sla_err_pp"] = {"value": err, "pairs": pairs}
        return detail

    # ------------------------------------------------------------------
    def _scaled(self, times: list[float], probes: list[float]) -> list[float]:
        """Scale each time by the mean of the probes on either side of it."""
        ref = self.hp.REFERENCE_S
        return [t * ref / ((a + b) / 2.0) for t, a, b in zip(times, probes, probes[1:])]

    def untraced(self) -> dict:
        setup_times, setup_probes = [], [self.hp.probe()]
        for _ in range(SETUP_BATCHES):
            gc.collect()
            n, t0 = 0, time.perf_counter()
            while not n or time.perf_counter() - t0 < SETUP_BATCH_S:
                inputs = self.wl.setup(self.seed)
                n += 1
            setup_times.append((time.perf_counter() - t0) / n)
            setup_probes.append(self.hp.probe())
        self._warmup(inputs)

        times, probes, units = [], [self.hp.probe()], []
        while not times or sum(times) + sum(probes) < self.seconds:
            dt, unit = self._unit(inputs)
            times.append(dt)
            units.append(unit)
            probes.append(self.hp.probe())
        attempted, failed = self._verify(inputs, units)

        setup_s = self._scaled(setup_times, setup_probes)
        unit_s = self._scaled(times, probes)
        detail = self._detail(units)
        detail["setup_s"] = tail(setup_s)
        detail["unit_s"] = tail(unit_s)
        detail["raw"] = {
            "setup_s": tail(setup_times),
            "unit_s": tail(times),
            "probe_s": tail(setup_probes + probes),
            "unit_times": times,
            "unit_probes": probes,
        }
        metrics = {
            "setup_s": statistics.median(setup_s),
            "unit_s": statistics.median(unit_s),
            "ops_per_s": statistics.median(u.ops / s for u, s in zip(units, unit_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        return self._result(detail, attempted, failed, metrics, END_TO_END)

    # ------------------------------------------------------------------
    def traced(self) -> dict:
        inputs = self.wl.setup(self.seed)
        self._warmup(inputs)
        tracer = self.tm.SpanTracer()
        plain, traced, counters = [], [], []
        while sum(dt for dt, _ in plain + traced) < self.seconds or not traced:
            plain.append(self._unit())
            spans_before = tracer.n_spans
            builds, unstable = tracer.model_builds, tracer.model_unstable
            dt, unit = self._unit(tracer=tracer)
            traced.append((dt, unit))
            counters.append(
                self._counters(
                    tracer,
                    unit,
                    spans=tracer.n_spans - spans_before,
                    builds=tracer.model_builds - builds,
                    unstable=tracer.model_unstable - unstable,
                )
            )
            tracer.clusters.clear()

        units = [u for _, u in plain] + [u for _, u in traced]
        attempted, failed = self._verify(inputs, units)
        if any(c != counters[0] for c in counters):
            self.problems.append("deterministic counters differ between traced units")
        if hasattr(self.wl, "shard_check"):
            self.problems += self.wl.shard_check(inputs, self.first)

        traced_s = sum(dt for dt, _ in traced)
        self_s = tracer.self_seconds()
        metrics = dict(counters[0])
        for layer, secs in self_s.items():
            metrics[_layer_metric(layer)] = 100.0 * secs / traced_s
        metrics[_layer_metric("other")] = 100.0 * (traced_s - tracer.covered_seconds()) / traced_s
        plain_med = statistics.median(dt for dt, _ in plain)
        traced_med = statistics.median(dt for dt, _ in traced)
        metrics["tracing.overhead"] = traced_med / plain_med - 1.0

        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{self.wl.name}.spans.npz"
        tracer.write(spans_path)

        detail = self._detail(units)
        detail["untraced_unit_s"] = tail([dt for dt, _ in plain])
        detail["traced_unit_s"] = tail([dt for dt, _ in traced])
        detail["self_s_per_unit"] = {k: v / len(traced) for k, v in self_s.items()}
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        return self._result(
            detail, attempted, failed, metrics, per_layer_names(self.tm.LAYERS)
        )

    def _counters(self, tracer, unit, *, spans, builds, unstable) -> dict:
        clusters = tracer.clusters
        requests = sum(c.metrics.n_requests for c in clusters)
        hits = {"index": 0, "meta": 0, "data": 0}
        misses = dict(hits)
        for cluster in clusters:
            for server_caches in cluster.caches:
                for kind, cache in zip(hits, server_caches):
                    hits[kind] += cache.hits
                    misses[kind] += cache.misses

        def per_req(total):
            return total / requests if requests else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        stats = self.wm.evalcache.stats()
        queries = unit.ops if unit.query_seconds else 0
        out = {
            "simulator.events_per_req": per_req(sum(c.sim.events_scheduled for c in clusters)),
            "simulator.disk_ops_per_req": per_req(sum(c.total_disk_ops for c in clusters)),
            "simulator.scanner.touches_per_req": per_req(
                sum(s.touches for c in clusters for s in c.scanners if s is not None)
            ),
            "model.builds": builds,
            "model.unstable": ratio(unstable, builds),
            "model.sla_err_pp": 0.0,
            "laplace.inversions": stats["inversion_calls"],
            "laplace.repairs": unit.query_repairs,
            "laplace.unconverged_frac": ratio(unit.unconverged_queries, queries),
            "distributions.evalcache.hit_ratio": ratio(
                stats["hits"], stats["hits"] + stats["misses"]
            ),
            "distributions.evalcache.evictions": stats["evictions"],
            "tracing.spans_per_unit": spans,
        }
        for kind in hits:
            out[f"simulator.cache.{kind}.hit_ratio"] = ratio(
                hits[kind], hits[kind] + misses[kind]
            )
        if isinstance(self.wl, self.wm.Sweep):
            out["model.sla_err_pp"] = self.wl.sla_error(self.first)[0]
        return out

    def raised(self, exc: Exception, spec) -> dict:
        """The result of a run in which the program raised: incorrect,
        the raising unit's operations failed, and every metric 0 since
        none was measured to the end."""
        per_unit = self.wl.attempts(self.inputs) if self.inputs is not None else 1
        self.problems.append(
            f"{self.wl.name} seed {self.seed}: the program raised "
            f"{type(exc).__name__}: {exc} (after {self.done} complete units)"
        )
        detail = {"workload": self.wl.name, "seed": self.seed, "units": self.done}
        values = {name: 0.0 for name, _ in spec}
        return self._result(detail, (self.done + 1) * per_unit, per_unit, values, spec)

    def _result(self, detail, attempted, failed, values, spec) -> dict:
        detail["problems"] = self.problems
        print(json.dumps({"detail": detail}, default=float))
        return {
            "correct": not self.problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    bench = Bench(workloads.WORKLOADS[args.workload](), args.seed, args.seconds)
    try:
        result = bench.traced() if args.trace else bench.untraced()
    except Exception as exc:  # noqa: BLE001 - reported, not hidden
        traceback.print_exc()
        spec = per_layer_names(bench.tm.LAYERS) if args.trace else END_TO_END
        result = bench.raised(exc, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
