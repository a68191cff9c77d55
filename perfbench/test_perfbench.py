"""The benchmark's own tests: BENCHMARK.json, smoke runs, checks, counters.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs here at its shortest length (one unit, shrunk
inputs), so a workload that crashes or whose checks fail is caught
before any timing run.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostprobe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wm  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SmallWhatIf(wm.WhatIf):
    N_EQ3, N_QUANTILE, N_ADMISSION, N_DEVICES = 4, 1, 1, 1


class SmallRedundant(wm.Redundant):
    STRATEGIES = (("kofn", 2),)


SMALL = {
    "sweep": lambda: wm.Sweep(
        rates={"S1": (110.0,), "S16": (148.0,)},
        n_objects=4_000,
        warm_accesses=10_000,
        window_duration=4.0,
        settle_duration=1.0,
    ),
    "fleet_read": lambda: wm.Fleet(
        "fleet_read", dataclasses.replace(wm.FLEET_READ, duration=2.0)
    ),
    "fleet_write": lambda: wm.Fleet(
        "fleet_write", dataclasses.replace(wm.FLEET_WRITE, duration=2.0)
    ),
    "whatif": SmallWhatIf,
    "redundant": SmallRedundant,
}
COUNTER_NAMES = [name for name, _ in run.COUNTERS]


def test_benchmark_json_is_well_formed():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    bench = json.loads(raw)
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60

    # `redundant` runs by hand only (README.md says why).
    assert [w["name"] for w in bench["workloads"]] == [
        name for name in wm.WORKLOADS if name != "redundant"
    ]
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]

    e2e = bench["end_to_end"]
    assert [(m["name"], m["unit"]) for m in e2e] == list(run.END_TO_END)
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)

    layer = bench["per_layer"]
    assert [(m["name"], m["unit"]) for m in layer] == run.per_layer_names(tracing.LAYERS)
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + layer:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")


@pytest.mark.parametrize("name", list(SMALL))
def test_untraced_smoke(name):
    result = run.Bench(SMALL[name](), seed=3, seconds=0).untraced()
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [k for k in result["metrics"]] == [k for k, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_reproduces_outputs_and_counters(name):
    first = run.Bench(SMALL[name](), seed=5, seconds=0).traced()
    second = run.Bench(SMALL[name](), seed=5, seconds=0).traced()
    for result in (first, second):
        assert result["correct"], result
        assert list(result["metrics"]) == [k for k, _ in run.per_layer_names(tracing.LAYERS)]
    for counter in COUNTER_NAMES:
        assert first["metrics"][counter] == second["metrics"][counter], counter
    shares = [
        m["value"] for k, m in first["metrics"].items() if k.endswith(".self_pct")
    ]
    assert sum(shares) == pytest.approx(100.0)


def _unit(workload, seed=7):
    inputs = workload.setup(seed)
    return inputs, workload.run(inputs)


def test_sweep_check_flags_a_missing_point():
    workload = SMALL["sweep"]()
    inputs, unit = _unit(workload)
    assert workload.check(inputs, unit.outputs) == (0, [])
    broken = dict(unit.outputs, S1=[])
    failed, problems = workload.check(inputs, broken)
    assert failed == 1 and "point missing" in problems[0]


def test_fleet_check_flags_a_lost_arrival():
    workload = SMALL["fleet_read"]()
    inputs, unit = _unit(workload)
    assert workload.check(inputs, unit.outputs) == (0, [])
    failed, problems = workload.check(dict(inputs, arrivals=inputs["arrivals"] + 1), unit.outputs)
    assert failed == 1 and problems


@pytest.mark.parametrize("name", ["whatif", "redundant"])
def test_query_check_flags_a_non_monotone_answer(name):
    workload = SMALL[name]()
    inputs, unit = _unit(workload)
    assert workload.check(inputs, unit.outputs) == (0, [])
    i = next(i for i, q in enumerate(inputs["queries"]) if len(q.slas) == 3)
    answers = list(unit.outputs)
    answers[i] = tuple(reversed(sorted(answers[i])))
    failed, problems = workload.check(inputs, answers)
    assert failed >= 1 and problems


def test_probe_does_fixed_work():
    assert hostprobe._interpreter_work() == hostprobe._interpreter_work()
    assert hostprobe._numpy_work() == hostprobe._numpy_work()
    assert hostprobe.probe() > 0.0


def test_unit_check_accepts_rounding_at_one():
    # A CDF sum can land an ulp above 1 (seen from the odopr baseline).
    assert wm._in_unit_interval([0.0, 0.57, 1.0000000000000002])
    assert not wm._in_unit_interval([1.001])
    assert not wm._in_unit_interval([-0.001])


def test_same_is_exact():
    import numpy as np

    nan = float("nan")
    assert wm.same({"a": (1.0, nan)}, {"a": (1.0, float("nan"))})
    assert not wm.same({"a": (1.0, nan)}, {"a": (1.0, 0.0)})
    assert wm.same({"x": np.array([1.0, nan])}, {"x": np.array([1.0, nan])})
    assert not wm.same({"x": np.array([1, 2])}, {"x": np.array([1.0, 2.0])})
    assert not wm.same({"x": np.array([1.0, 2.0])}, {"x": np.array([1.0, 3.0])})


class RaisingWorkload(SmallWhatIf):
    name = "raising"

    def run(self, inputs):
        raise ValueError("boom")


@pytest.mark.parametrize("trace", [0, 1])
def test_a_raising_program_is_reported_not_hidden(trace):
    bench = run.Bench(RaisingWorkload(), seed=3, seconds=0)
    spec = run.per_layer_names(tracing.LAYERS) if trace else run.END_TO_END
    with pytest.raises(ValueError) as caught:
        bench.traced() if trace else bench.untraced()
    result = bench.raised(caught.value, spec)
    assert not result["correct"]
    per_unit = len(bench.inputs["queries"])
    assert result["failed"] == per_unit and result["attempted"] >= per_unit
    assert list(result["metrics"]) == [name for name, _ in spec]


@pytest.mark.xfail(
    raises=ValueError,
    reason="OpenLoopDriver.load rounds the first arrival of a trace to an "
    "ulp before the simulated clock on some seeds (here S1 @ 150 req/s, "
    "sweep seed 407, 2-s settle) and raises instead of simulating",
)
def test_sweep_point_that_hits_the_load_rounding_defect():
    scenario = dataclasses.replace(
        wm.ex.scenario_s1(),
        rates=(30.0, 70.0, 110.0, 150.0),
        **wm.Sweep.WINDOW,
    )
    calibration = wm.ex.calibrate(scenario, seed=407)
    results = wm.ex.run_sweeps(
        {"S1": scenario}, calibrations={"S1": calibration}, seed=407, jobs=1
    )
    assert len(results["S1"].points) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whatif", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
