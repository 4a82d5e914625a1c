"""The traced run's call counts repeat exactly for a seed.

Two traced runs of each workload, one scenario per pass, in separate
interpreters with different hash seeds (so an order that depends on
string hashing would show): every count metric (``*_calls``,
``sim.events``, ``maintenance.rounds``, ``routing.fallbacks``, ...) must
match.  That is what lets a change cite these counts as counts.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_counts.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = (
    "refer-construct", "refer-traffic", "figure-point", "refer-resilience",
)


def traced_counts(workload_name: str, seed: int) -> dict:
    """Exact counts of one traced one-scenario pass (in this process)."""
    from layers import LayerCounts, Phases, exact_counts, layer_hooks
    from layers import layer_metrics
    from run import run_pass
    from spans import Tracer
    from workloads import WORKLOADS as ALL

    workload = dataclasses.replace(ALL[workload_name], scenarios=1)
    phases = Phases()
    phases.install()
    tracer = Tracer()
    counts = LayerCounts(tracer)
    tracer.install(layer_hooks(counts))
    try:
        done = run_pass(workload, seed, phases, counts.end_run)
    finally:
        tracer.uninstall()
        phases.uninstall()
    assert done.failed == 0
    metrics = layer_metrics(tracer, counts, done.events, 1.0, 1.0, 1.0)
    return exact_counts(metrics)


def _child(workload_name: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(HERE / "test_counts.py"), workload_name],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_counts_repeat_exactly(workload_name):
    first = _child(workload_name, "1")
    second = _child(workload_name, "2")
    assert first == second
    assert first["sim.events"] > 0
    assert any(name.endswith("_calls") and first[name] for name in first)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    print(json.dumps(traced_counts(sys.argv[1], seed=1), sort_keys=True))
