"""Regenerate the two what-if templates the benchmark's model workloads load.

Each template is the model input fitted from one simulated measurement
window of the paper's sweep -- S1 at 110 req/s and S16 at 148 req/s,
seed 0 -- written as a ``system_to_doc`` document plus the replica rows
of that cluster's hash ring (what ``RedundantLatencyModel`` needs).
Committing them keeps the model workloads' inputs fixed: a change to
the simulator cannot shift what the ``whatif`` and ``redundant``
workloads query.

Before writing, the script checks that the parameters loaded back with
``system_from_doc`` predict bit-for-bit what the in-memory parameters
predict, and it stores those predictions so the benchmark can check the
template still loads into the same model.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/templates/generate.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.experiments import calibrate, measure_point, scenario_s1, scenario_s16
from repro.experiments.runner import _point_tasks, _prepare_context
from repro.model import (
    LatencyPercentileModel,
    replica_sets_from_ring,
    system_from_doc,
    system_to_doc,
)
from repro.simulator.ring import HashRing

HERE = pathlib.Path(__file__).resolve().parent

#: (file stem, scenario factory, rate in req/s).  Middle points of the
#: bench rate grids: loaded enough that queueing matters, stable enough
#: that the seeded load factors above 1 still mostly solve.
TEMPLATES = (
    ("s1_110", scenario_s1, 110.0),
    ("s16_148", scenario_s16, 148.0),
)
SEED = 0


def fit_template(scenario_factory, rate: float, seed: int) -> dict:
    scenario = dataclasses.replace(scenario_factory(), rates=(rate,))
    ctx = _prepare_context(
        scenario,
        models=("ours",),
        calibration=calibrate(scenario, seed=seed),
        seed=seed,
        rescale_service=False,
    )
    task = _point_tasks(scenario.name, scenario, (rate,), seed)[0]
    table, _, _, params = measure_point(ctx, task)
    if table is None:
        raise RuntimeError(f"{scenario.name} @ {rate} recorded no requests")

    slas = list(scenario.slas)
    doc = system_to_doc(params, slas)
    loaded, loaded_slas = system_from_doc(json.loads(json.dumps(doc)))
    expected = LatencyPercentileModel(params).sla_percentiles(slas).tolist()
    got = LatencyPercentileModel(loaded).sla_percentiles(loaded_slas).tolist()
    if got != expected:
        raise RuntimeError(
            f"{scenario.name}: loaded template predicts {got}, in-memory "
            f"parameters predict {expected}"
        )

    n_devices = scenario.cluster.n_devices
    ring = HashRing.from_assignment(ctx.ring_assignment, n_devices=n_devices)
    names = [f"dev{d}" for d in range(n_devices)]
    live = {dev.name for dev in params.devices}
    rows = replica_sets_from_ring(
        ring, names, exclude=[n for n in names if n not in live]
    )
    return {
        "scenario": scenario.name,
        "rate": rate,
        "seed": seed,
        "window_requests": len(table),
        "system": doc,
        "replica_rows": [[list(names), weight] for names, weight in rows],
        "eq3_predictions": expected,
    }


def main() -> None:
    for stem, factory, rate in TEMPLATES:
        template = fit_template(factory, rate, SEED)
        path = HERE / f"{stem}.json"
        path.write_text(json.dumps(template, indent=1) + "\n")
        print(f"wrote {path.name}: {template['window_requests']} window requests")


if __name__ == "__main__":
    main()
