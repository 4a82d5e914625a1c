"""Output checks on every benchmark run.

A run's simulated outputs are the :class:`RunResult` metric fields plus
``class_stats``; trace fingerprints and registry snapshots are left
out.  Their digest is pinned per workload for the default seed in
``digests.json``.  For any seed the conservation invariants must hold.
Only a change to the benchmark itself may re-pin a digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from typing import Dict, List, Optional

from repro.experiments.runner import RunResult

DIGESTS = pathlib.Path(__file__).with_name("digests.json")

OUTPUT_FIELDS = (
    "system",
    "throughput_bps",
    "mean_delay_s",
    "comm_energy_j",
    "construction_energy_j",
    "generated",
    "delivered_qos",
    "delivered_total",
    "dropped",
    "flood_comm_energy_j",
    "class_stats",
)


def digest(result: RunResult) -> str:
    """SHA-256 of the run's outputs (floats by their exact repr)."""
    text = repr(tuple(getattr(result, field) for field in OUTPUT_FIELDS))
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_errors(result: RunResult, system) -> List[str]:
    """Conservation checks that hold for every seed."""
    errors = []
    if result.delivered_total + result.dropped > result.generated:
        errors.append(
            f"delivered_total {result.delivered_total} + dropped "
            f"{result.dropped} > generated {result.generated}"
        )
    if result.delivered_qos > result.delivered_total:
        errors.append(
            f"delivered_qos {result.delivered_qos} > delivered_total "
            f"{result.delivered_total}"
        )
    per_node = system.network.registry.get("energy_node_joules")
    node_sum = math.fsum(metric.value for _, metric in per_node.items())
    phases = result.construction_energy_j + result.comm_energy_j
    if not math.isclose(node_sum, phases, rel_tol=1e-9, abs_tol=1e-12):
        errors.append(
            f"construction + communication energy {phases!r} J != "
            f"per-node ledger total {node_sum!r} J"
        )
    if result.system == "REFER" and result.flood_comm_energy_j != 0:
        errors.append(
            f"REFER spent {result.flood_comm_energy_j!r} J on floods"
        )
    return errors


def pinned(workload: str) -> Optional[List[str]]:
    """The default seed's per-run digests, or None if not pinned."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def pin(workload: str, digests: List[str]) -> None:
    table: Dict[str, List[str]] = (
        json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    )
    table[workload] = digests
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
