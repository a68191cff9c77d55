"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

Each workload calls the program's public entry points in one process
with ``jobs=1``.  ``setup(seed)`` builds the inputs a unit needs,
``run(inputs)`` performs one unit of work and returns a :class:`Unit`,
``attempts(inputs)`` counts the operations a unit attempts, and
``check(inputs, outputs)`` verifies a unit's outputs.  A unit is
deterministic in its inputs, so every unit of a run must return
outputs equal to the first unit's; ``run.py`` checks that.

Why these workloads, and which layer each one stresses, is written
down in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import time
import warnings

import numpy as np

from repro import experiments as ex
from repro import model as mdl
from repro.distributions import evalcache
from repro.laplace.inversion import RepairWarning
from repro.queueing import UnstableQueueError
from repro.simulator.cluster import ClusterConfig
from repro.simulator.metrics import MetricsRecorder

TEMPLATE_DIR = pathlib.Path(__file__).resolve().parent / "templates"
TEMPLATES = ("s1_110", "s16_148")

#: The paper's bench rate grids: five points per scenario spanning the
#: light-load to near-saturation region of each configuration.
BENCH_RATES = {
    "S1": (30.0, 70.0, 110.0, 150.0, 190.0),
    "S16": (40.0, 94.0, 148.0, 202.0, 256.0),
}
#: Monotonicity slack for model CDFs, far below any SLA step the checks
#: compare (the Euler inversion repairs monotonicity to ~1e-6).
MONOTONE_TOL = 1e-9
#: Rounding slack at the ends of [0, 1] for a percentile, the bound the
#: repository's own property tests give ``invert_cdf`` (a CDF sum can
#: land an ulp above 1, e.g. 1.0000000000000002).
PROB_TOL = 1e-12
#: ``sla_percentile(latency_quantile(q))`` must return ``q`` this closely.
QUANTILE_TOL = 1e-6


@dataclasses.dataclass
class Unit:
    """What one unit of work returned."""

    #: Canonical outputs; must be bit-equal across units and between the
    #: traced and untraced run.
    outputs: object
    #: Operations completed: simulated requests, or what-if queries.
    ops: int
    #: Host seconds per query class (query workloads only).
    query_seconds: dict = dataclasses.field(default_factory=dict)
    #: RepairWarnings raised inside queries, and queries that raised one.
    query_repairs: int = 0
    unconverged_queries: int = 0


def same(a, b) -> bool:
    """Exact structural equality, NaN equal to NaN, arrays by content."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
        )
    try:
        # Native comparison first: a fleet state holds ~50k row tuples,
        # which the element-wise walk below would take a second over.
        if a == b:
            return True
    except ValueError:  # an array inside; compare element-wise
        pass
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    return isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)


def count_repairs(caught) -> int:
    """RepairWarnings among warnings recorded by ``catch_warnings``."""
    return sum(issubclass(w.category, RepairWarning) for w in caught)


def _monotone(values) -> bool:
    return all(b >= a - MONOTONE_TOL for a, b in zip(values, values[1:]))


def _in_unit_interval(values) -> bool:
    return all(-PROB_TOL <= v <= 1.0 + PROB_TOL for v in values)


# ----------------------------------------------------------------------
# paper sweep
# ----------------------------------------------------------------------


class Sweep:
    """S1 + S16 over the bench rate grids: simulate, then predict.

    ``rates`` and ``overrides`` (``Scenario`` fields) shrink the sweep
    for the benchmark's own smoke tests.
    """

    name = "sweep"
    #: Simulated seconds per rate point, a quarter of the paper's: a unit
    #: takes ~2 s of host time instead of ~8 s, so a run holds enough
    #: units for their median to be a steady figure.
    WINDOW = {"window_duration": 10.0, "settle_duration": 2.0}

    def __init__(self, rates: dict = BENCH_RATES, **overrides) -> None:
        self.rates = rates
        self.overrides = {**self.WINDOW, **overrides}

    def setup(self, seed: int) -> dict:
        scenarios = {
            key: dataclasses.replace(factory(), rates=self.rates[key], **self.overrides)
            for key, factory in (("S1", ex.scenario_s1), ("S16", ex.scenario_s16))
        }
        calibrations = {
            key: ex.calibrate(scenario, seed=seed) for key, scenario in scenarios.items()
        }
        return {"seed": seed, "scenarios": scenarios, "calibrations": calibrations}

    def warmup(self, inputs: dict) -> None:
        # One point per scenario runs every code path of the sweep at a
        # fifth of a unit's cost.
        ex.run_sweeps(
            {k: dataclasses.replace(s, rates=s.rates[:1]) for k, s in inputs["scenarios"].items()},
            calibrations=inputs["calibrations"],
            seed=inputs["seed"],
            jobs=1,
        )

    def run(self, inputs: dict) -> Unit:
        results = ex.run_sweeps(
            inputs["scenarios"],
            calibrations=inputs["calibrations"],
            seed=inputs["seed"],
            jobs=1,
        )
        outputs = {
            key: [
                (
                    p.rate,
                    p.n_requests,
                    tuple(p.observed[s] for s in result.slas),
                    {m: tuple(p.predicted[m][s] for s in result.slas) for m in result.models},
                    p.max_utilization,
                )
                for p in result.points
            ]
            for key, result in results.items()
        }
        points = [p for pts in outputs.values() for p in pts]
        return Unit(outputs=outputs, ops=sum(p[1] for p in points))

    @staticmethod
    def attempts(inputs: dict) -> int:
        """Operations a unit attempts: rate points."""
        return sum(len(s.rates) for s in inputs["scenarios"].values())

    def check(self, inputs: dict, outputs: dict) -> tuple[int, list[str]]:
        problems = []
        for key, scenario in inputs["scenarios"].items():
            points = outputs.get(key, [])
            done = {p[0] for p in points}
            problems += [
                f"{key} @ {rate:g}: point missing" for rate in scenario.rates if rate not in done
            ]
            for rate, n_requests, observed, predicted, _ in points:
                if n_requests <= 0 or not _in_unit_interval(observed):
                    problems.append(f"{key} @ {rate:g}: bad window ({n_requests} requests)")
                for family, values in predicted.items():
                    stable = [v for v in values if not math.isnan(v)]
                    if stable and (len(stable) < len(values) or not _in_unit_interval(stable)):
                        problems.append(f"{key} @ {rate:g}: {family} predicts {values}")
        failed = len({p.split(":")[0] for p in problems})
        return failed, problems

    @staticmethod
    def sla_error(outputs: dict) -> tuple[float, int]:
        """Mean |ours - observed| in percentage points over stable pairs."""
        errors = [
            abs(pred - obs) * 100.0
            for points in outputs.values()
            for _, _, observed, predicted, _ in points
            for obs, pred in zip(observed, predicted["ours"])
            if not math.isnan(pred)
        ]
        return (sum(errors) / len(errors) if errors else 0.0), len(errors)


# ----------------------------------------------------------------------
# fleet episodes
# ----------------------------------------------------------------------


class Fleet:
    """One open-loop fleet episode through ``run_fleet``."""

    def __init__(self, name: str, scenario: ex.FleetScenario) -> None:
        self.name = name
        self.scenario = scenario

    def setup(self, seed: int) -> dict:
        _, tasks = ex.build_cluster_tasks(self.scenario, seed)
        return {"seed": seed, "arrivals": sum(int(t.times.size) for t in tasks)}

    def warmup(self, inputs: dict) -> None:
        self.run(inputs)

    def run(self, inputs: dict) -> Unit:
        result = ex.run_fleet(self.scenario, seed=inputs["seed"], jobs=1)
        outputs = {
            "state": result.state,
            "n_requests": result.n_requests,
            "events": result.events,
            "disk_ops": result.disk_ops,
        }
        return Unit(outputs=outputs, ops=result.n_requests)

    @staticmethod
    def attempts(inputs: dict) -> int:
        """Operations a unit attempts: generated arrivals."""
        return inputs["arrivals"]

    def check(self, inputs: dict, outputs: dict) -> tuple[int, list[str]]:
        latency = MetricsRecorder.from_state(outputs["state"]).requests().response_latency
        finite = int(np.isfinite(latency).sum())
        if outputs["n_requests"] == inputs["arrivals"] == finite:
            return 0, []
        return max(inputs["arrivals"] - finite, 1), [
            f"{inputs['arrivals']} arrivals generated, {outputs['n_requests']} "
            f"completed, {finite} with a finite latency"
        ]

    def shard_check(self, inputs: dict, outputs: dict) -> list[str]:
        """A 2-shard, 2-worker episode must equal the serial one."""
        sharded = ex.run_fleet(self.scenario, seed=inputs["seed"], shards=2, jobs=2)
        if sharded.jobs != 2:
            return ["2-worker fleet pool could not start"]
        if not same(sharded.state, outputs["state"]):
            return ["2-shard, 2-worker fleet state differs from the serial state"]
        return []


# Ten simulated seconds keep a unit near 1 s of host time.
FLEET_READ = ex.FleetScenario(
    n_clusters=4,
    objects_per_cluster=1_000,
    rate=2_500.0,
    duration=10.0,
    warm_accesses=10_000,
)
FLEET_WRITE = ex.FleetScenario(
    n_clusters=4,
    cluster=ClusterConfig(processes_per_device=16, cache_bytes_per_server=48 << 20),
    objects_per_cluster=4_000,
    rate=2_000.0,
    duration=10.0,
    warm_accesses=10_000,
    write_fraction=0.2,
)


# ----------------------------------------------------------------------
# what-if queries against the committed templates
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Query:
    kind: str  # eq3 / quantile / admission / devices / kofn / quorum / forkjoin
    template: int
    load: float
    slas: tuple[float, ...] = ()
    target: float = 0.0
    label: str = ""  # class the query's latency is reported under
    #: Clear evalcache first (outside the query's timer).
    cold: bool = False


def load_templates() -> list[dict]:
    """Read the committed templates into model parameters."""
    templates = []
    for stem in TEMPLATES:
        doc = json.loads((TEMPLATE_DIR / f"{stem}.json").read_text())
        params, slas = mdl.system_from_doc(doc["system"])
        templates.append(
            {
                "name": doc["scenario"],
                "params": params,
                "slas": tuple(slas),
                "rows": tuple((tuple(names), float(w)) for names, w in doc["replica_rows"]),
                "eq3_predictions": tuple(doc["eq3_predictions"]),
            }
        )
    return templates


def _check_templates(templates: list[dict]) -> list[str]:
    problems = []
    for t in templates:
        got = mdl.LatencyPercentileModel(t["params"]).sla_percentiles(t["slas"])
        if not np.allclose(got, t["eq3_predictions"], rtol=0.0, atol=QUANTILE_TOL):
            problems.append(
                f"template {t['name']} predicts {got.tolist()}, generated "
                f"with {list(t['eq3_predictions'])}"
            )
    return problems


class _Queries:
    """Shared query loop of the two model-only workloads."""

    def setup(self, seed: int) -> dict:
        templates = load_templates()
        rng = np.random.default_rng(seed)
        queries = self.queries(templates, rng)
        return {"templates": templates, "queries": queries}

    def warmup(self, inputs: dict) -> None:
        self.run(inputs)

    @staticmethod
    def attempts(inputs: dict) -> int:
        """Operations a unit attempts: queries."""
        return len(inputs["queries"])

    def run(self, inputs: dict) -> Unit:
        templates = inputs["templates"]
        answers = []
        seconds: dict[str, list[float]] = {}
        repairs = unconverged = 0
        for q in inputs["queries"]:
            if q.cold:
                evalcache.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RepairWarning)
                t0 = time.perf_counter()
                try:
                    answer = self.answer(templates[q.template], q)
                except UnstableQueueError:
                    answer = "unstable"
                dt = time.perf_counter() - t0
            n = count_repairs(caught)
            repairs += n
            unconverged += n > 0
            seconds.setdefault(q.label, []).append(dt)
            answers.append(answer)
        return Unit(
            outputs=answers,
            ops=len(answers),
            query_seconds=seconds,
            query_repairs=repairs,
            unconverged_queries=unconverged,
        )


def _draw_slas(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(sorted(float(s) for s in rng.uniform(0.005, 0.2, n)))


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """``n`` draws, one from each of ``n`` equal slices of [lo, hi), in
    random order.  A query's cost depends on its load and target, and
    one draw per slice keeps a pass's total work nearly the same for
    every seed while the seed still picks each point."""
    points = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return [float(x) for x in rng.permutation(points)]


class WhatIf(_Queries):
    """Eq. 3 percentiles, p99 inversion and planning queries."""

    name = "whatif"
    #: Queries per template per pass, sized so that each class takes a
    #: similar share of host time (eq3 ~1.5 ms, quantile ~15 ms,
    #: admission ~12 ms, devices ~3 ms each).
    N_EQ3, N_QUANTILE, N_ADMISSION, N_DEVICES = 40, 4, 4, 8

    def queries(self, templates, rng) -> list[Query]:
        out = []
        for t in range(len(templates)):
            slas = templates[t]["slas"]
            # Loads reach past S1's stability limit (x1.87), so some
            # queries are refused with UnstableQueueError.
            loads = _strata(rng, self.N_EQ3 // 2, 0.4, 2.0)
            for load in loads:
                out.append(Query("eq3", t, load, slas, label="eq3"))
                # The same load again at new SLAs: whichever of the two
                # runs second finds evalcache warm.
                again = loads[int(rng.integers(len(loads)))]
                out.append(Query("eq3", t, again, _draw_slas(rng, 3), label="eq3"))
            for load in _strata(rng, self.N_QUANTILE, 0.4, 1.8):
                out.append(Query("quantile", t, load, (0.99,), label="quantile"))
            for kind, n in (("admission", self.N_ADMISSION), ("devices", self.N_DEVICES)):
                loads = _strata(rng, n, 0.5, 1.5)
                # Below the zero-load ceilings (S16 at 50 ms: 0.970):
                # near a ceiling devices_needed asks for hundreds of
                # devices and one query costs seconds.
                targets = _strata(rng, n, 0.85, 0.95)
                for i, (load, target) in enumerate(zip(loads, targets)):
                    sla = (0.05, 0.1)[i % 2]
                    out.append(Query(kind, t, load, (sla,), target=target, label="plan"))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    @staticmethod
    def answer(template: dict, q: Query):
        params = template["params"].scaled(q.load)
        if q.kind == "eq3":
            return tuple(mdl.LatencyPercentileModel(params).sla_percentiles(q.slas).tolist())
        if q.kind == "quantile":
            return mdl.LatencyPercentileModel(params).latency_quantile(q.slas[0])
        if q.kind == "admission":
            return mdl.admission_rate(params, q.slas[0], q.target)
        return mdl.devices_needed(params, q.slas[0], q.target)

    @staticmethod
    def check_answer(template: dict, q: Query, answer) -> str:
        params = template["params"].scaled(q.load)
        if q.kind == "eq3":
            if not (_in_unit_interval(answer) and _monotone(answer)):
                return f"percentiles {answer} not monotone in [0, 1]"
        elif q.kind == "quantile":
            model = mdl.LatencyPercentileModel(params)
            back = model.sla_percentile(answer)
            if abs(back - q.slas[0]) > QUANTILE_TOL:
                return f"S(latency_quantile({q.slas[0]})) = {back}"
            slas = sorted(template["slas"] + (answer,))
            if not _monotone(model.sla_percentiles(slas).tolist()):
                return "percentiles not monotone around the quantile"
        elif q.kind == "admission":
            total = params.total_request_rate
            factor = answer / total if answer > 0.0 else 1e-3
            met = mdl.sla_met(params.scaled(factor), q.slas[0], q.target)
            if met != (answer > 0.0):
                return f"admission rate {answer} vs target {q.target}"
        elif answer is not None and answer < 1:
            return f"devices_needed returned {answer}"
        return ""

    def check(self, inputs: dict, outputs: list) -> tuple[int, list[str]]:
        problems = []
        for q, answer in zip(inputs["queries"], outputs):
            if answer != "unstable":
                problem = self.check_answer(inputs["templates"][q.template], q, answer)
                if problem:
                    problems.append(f"{q}: {problem}")
        return len(problems), _check_templates(inputs["templates"]) + problems


class Redundant(_Queries):
    """kofn@2 / quorum / forkjoin@2 order-statistic model queries.

    Each strategy gets a cold query and a warm repeat at the same load
    and a new SLA.  Only the S1 template is queried: a cold query costs
    1-3 s and holds ~750 MB of evalcache entries, so evalcache is
    cleared before each cold query and a unit stays at three of them.
    """

    name = "redundant"
    STRATEGIES = (("kofn", 2), ("quorum", 1), ("forkjoin", 2))
    TEMPLATE = 0

    def queries(self, templates, rng) -> list[Query]:
        out = []
        t = self.TEMPLATE
        for strategy, _ in self.STRATEGIES:
            # A narrow load band: the cold query's cost depends on the
            # load, and the band keeps that cost similar across seeds
            # while the seed still picks the point.
            load = float(rng.uniform(0.8, 0.9))
            slas = templates[t]["slas"]
            out.append(Query(strategy, t, load, slas, label=strategy, cold=True))
            # Same load, new SLA: the warm rebuild hits evalcache.
            out.append(Query(strategy, t, load, _draw_slas(rng, 1), label="warm"))
        return out

    def warmup(self, inputs: dict) -> None:
        # One cold query outside the seeded load band exercises every
        # code path; a full pass would cost as much as two timed units.
        template = inputs["templates"][0]
        self.answer(template, Query("kofn", 0, 0.5, template["slas"]))

    def answer(self, template: dict, q: Query):
        fanout = dict(self.STRATEGIES)[q.kind]
        model = mdl.RedundantLatencyModel(
            template["params"].scaled(q.load),
            template["rows"],
            strategy=q.kind,
            fanout=fanout,
        )
        return tuple(model.sla_percentiles(q.slas).tolist())

    def check(self, inputs: dict, outputs: list) -> tuple[int, list[str]]:
        # Queries come in (cold, warm) pairs at one load: together they
        # must still be monotone in the SLA.
        problems = []
        queries = inputs["queries"]
        for i in range(0, len(queries), 2):
            (cold, warm), answers = queries[i : i + 2], outputs[i : i + 2]
            if "unstable" in answers:
                continue
            pairs = sorted(zip(cold.slas + warm.slas, answers[0] + answers[1]))
            values = [v for _, v in pairs]
            if not (_in_unit_interval(values) and _monotone(values)):
                problems.append(f"{cold}: percentiles {pairs} not monotone in [0, 1]")
        return 2 * len(problems), _check_templates(inputs["templates"]) + problems


WORKLOADS = {
    "sweep": Sweep,
    "fleet_read": lambda: Fleet("fleet_read", FLEET_READ),
    "fleet_write": lambda: Fleet("fleet_write", FLEET_WRITE),
    "whatif": WhatIf,
    "redundant": Redundant,
}
