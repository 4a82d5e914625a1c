"""Which ``repro`` calls the benchmark wraps, and the numbers it reads.

:class:`Phases` is installed on every run: it wraps each system's
``build`` and ``Simulator.run_until`` to split a run's host time into
set-up (entering ``run_scenario`` until ``build()`` returns) and
simulation, and keeps the built system for the output checks.  It adds
a handful of calls per run, so it is left on for untraced timing.

:func:`layer_hooks` lists the spans of the traced run, one or more per
layer; :func:`layer_metrics` turns a traced pass into the per-layer
metrics BENCHMARK.json names.
"""

from __future__ import annotations

import time
from typing import Dict, List, Set, Tuple

import repro.baselines.kautz_overlay as kautz_overlay_module
import repro.core.routing as routing_module
import repro.experiments.runner as runner
from repro.core.embedding import EmbeddingProtocol
from repro.core.maintenance import TopologyMaintenance
from repro.core.routing import ReferRouter
from repro.kautz.interned import InternedKautzSpace
from repro.net.discovery import FloodDiscovery
from repro.net.energy import EnergyLedger
from repro.net.mac import ContentionMac
from repro.net.medium import WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.spatial import SpatialHashGrid
from repro.qos.mac import MacQosScheduler
from repro.recovery.arq import ArqLink
from repro.sim.core import Simulator
from repro.telemetry.registry import MetricFamily
from repro.telemetry.tracing import TraceStream

from spans import Hook, Tracer

#: Span name -> the layer its self time is charged to.
LAYER_OF: Dict[str, str] = {
    "scenario": "runner",
    "system.build": "system",
    "sim.run_until": "sim",
    "mobility.position": "mobility",
    "medium.can_transmit": "medium",
    "medium.link_quality": "medium",
    "medium.neighbors": "medium",
    "spatial.within_range": "spatial",
    "energy.charge_tx": "energy",
    "energy.charge_rx": "energy",
    "registry.child": "registry",
    "network.send": "network",
    "network.flood": "network",
    "mac.transmit": "mac",
    "embedding.run": "embedding",
    "maintenance.round": "maintenance",
    "routing.send": "routing",
    "kautz.table": "kautz",
    "discovery.query": "discovery",
    "qos.submit": "qos",
    "recovery.arq_send": "recovery",
    "telemetry.trace": "telemetry",
}

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values()))


class Phases:
    """Set-up / simulation split of each ``run_scenario`` call.

    Records ``time.perf_counter()`` stamps: when the last ``build()``
    returned and the ``(start, end)`` of every ``run_until`` call.
    """

    def __init__(self) -> None:
        self.build_end = 0.0
        self.run_until_spans: List[Tuple[float, float]] = []
        self.events = 0
        self.system = None
        self._patched: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.build_end = 0.0
        self.run_until_spans = []
        self.events = 0
        self.system = None

    def install(self) -> None:
        for cls in runner.SYSTEMS.values():
            self._patch(cls, "build", self._wrap_build(cls.__dict__["build"]))
        self._patch(
            Simulator, "run_until",
            self._wrap_run_until(Simulator.__dict__["run_until"]),
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_build(self, build):
        phases = self

        def wrapped(system):
            build(system)
            phases.build_end = time.perf_counter()
            phases.system = system

        return wrapped

    def _wrap_run_until(self, run_until):
        phases = self

        def wrapped(sim, end_time):
            events = sim.processed_events
            start = time.perf_counter()
            try:
                run_until(sim, end_time)
            finally:
                phases.run_until_spans.append((start, time.perf_counter()))
                phases.events += sim.processed_events - events

        return wrapped


class LayerCounts:
    """Counts the spans alone cannot give, gathered during a traced pass."""

    def __init__(self, tracer: Tracer) -> None:
        #: Distinct (mobility model, time) pairs asked for, summed over
        #: runs.
        self.unique_positions = 0
        self._positions: Set[Tuple[int, float]] = set()
        self.flood_rx = 0
        self.fallbacks = 0
        self._flood_depth = tracer.depth
        self._flood = tracer.index("network.flood")

    def position(self, mobility, now) -> None:
        # id() tells live objects apart; end_run() clears the set before
        # the next run can reuse an id.
        self._positions.add((id(mobility), now))

    def charge_rx(self, *args, **kwargs) -> None:
        if self._flood_depth[self._flood]:
            self.flood_rx += 1

    def end_run(self, system) -> None:
        self.unique_positions += len(self._positions)
        self._positions.clear()
        router = getattr(system, "router", None)
        if isinstance(router, ReferRouter):
            self.fallbacks += router.stats.detours


def layer_hooks(counts: LayerCounts) -> List[Hook]:
    """The spans of a traced run, around each layer's public calls."""
    hooks = [Hook(runner, "run_scenario", "scenario")]
    hooks += [
        Hook(cls, "build", "system.build") for cls in runner.SYSTEMS.values()
    ]
    hooks += [
        Hook(Simulator, "run_until", "sim.run_until"),
        Hook(RandomWaypoint, "position", "mobility.position", False,
             counts.position),
        Hook(StaticMobility, "position", "mobility.position", False,
             counts.position),
        Hook(WirelessMedium, "can_transmit", "medium.can_transmit", False),
        Hook(WirelessMedium, "link_quality", "medium.link_quality", False),
        Hook(WirelessMedium, "neighbors", "medium.neighbors", False),
        Hook(SpatialHashGrid, "within_range", "spatial.within_range", False),
        Hook(EnergyLedger, "charge_tx", "energy.charge_tx", False),
        Hook(EnergyLedger, "charge_rx", "energy.charge_rx", False,
             counts.charge_rx),
        Hook(MetricFamily, "child", "registry.child", False),
        Hook(WirelessNetwork, "send", "network.send"),
        Hook(WirelessNetwork, "flood", "network.flood"),
        Hook(WirelessNetwork, "flood_multi", "network.flood"),
        Hook(ContentionMac, "transmit", "mac.transmit"),
        Hook(EmbeddingProtocol, "run", "embedding.run"),
        Hook(TopologyMaintenance, "_round", "maintenance.round"),
        Hook(ReferRouter, "send_to_actuator", "routing.send"),
        Hook(routing_module, "successor_table", "kautz.table", False),
        Hook(routing_module, "kautz_distance", "kautz.table", False),
        Hook(kautz_overlay_module, "successor_table", "kautz.table", False),
        Hook(InternedKautzSpace, "table", "kautz.table", False),
        Hook(FloodDiscovery, "discover_path", "discovery.query"),
        Hook(FloodDiscovery, "discover_nearest", "discovery.query"),
        Hook(MacQosScheduler, "submit", "qos.submit"),
        Hook(ArqLink, "send", "recovery.arq_send"),
        Hook(TraceStream, "record", "telemetry.trace", False),
        Hook(TraceStream, "dispatch", "telemetry.trace", False),
        Hook(TraceStream, "close", "telemetry.trace", False),
    ]
    return hooks


#: (metric, unit, better) of the traced run, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.run_until_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("mobility.position_calls", "count", "lower"),
    ("mobility.position_s", "s", "lower"),
    ("mobility.position_unique_ratio", "ratio", "higher"),
    ("medium.can_transmit_calls", "count", "lower"),
    ("medium.can_transmit_s", "s", "lower"),
    ("medium.link_quality_calls", "count", "lower"),
    ("medium.link_quality_s", "s", "lower"),
    ("medium.neighbors_calls", "count", "lower"),
    ("medium.neighbors_s", "s", "lower"),
    ("spatial.within_range_calls", "count", "lower"),
    ("spatial.within_range_s", "s", "lower"),
    ("energy.charge_tx_calls", "count", "lower"),
    ("energy.charge_rx_calls", "count", "lower"),
    ("energy.charge_s", "s", "lower"),
    ("registry.child_calls", "count", "lower"),
    ("registry.child_s", "s", "lower"),
    ("registry.child_per_charge", "ratio", "lower"),
    ("network.send_calls", "count", "lower"),
    ("network.send_s", "s", "lower"),
    ("network.flood_calls", "count", "lower"),
    ("network.flood_s", "s", "lower"),
    ("network.flood_rx_per_flood", "ratio", "lower"),
    ("mac.transmit_calls", "count", "lower"),
    ("mac.transmit_s", "s", "lower"),
    ("embedding.run_s", "s", "lower"),
    ("embedding.self_s", "s", "lower"),
    ("maintenance.rounds", "count", "lower"),
    ("maintenance.round_s", "s", "lower"),
    ("routing.send_calls", "count", "lower"),
    ("routing.send_s", "s", "lower"),
    ("routing.fallbacks", "count", "lower"),
    ("kautz.table_calls", "count", "lower"),
    ("discovery.queries", "count", "lower"),
    ("discovery.query_s", "s", "lower"),
    ("qos.submit_calls", "count", "lower"),
    ("qos.submit_s", "s", "lower"),
    ("recovery.arq_sends", "count", "lower"),
    ("recovery.arq_send_s", "s", "lower"),
    ("telemetry.trace_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
) + tuple((f"self.{layer}_s", "s", "lower") for layer in LAYERS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_seconds_by_layer(tracer: Tracer) -> Dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for name in tracer.names:
        totals[LAYER_OF[name]] += tracer.self_seconds(name)
    return totals


def layer_metrics(
    tracer: Tracer,
    counts: LayerCounts,
    events: int,
    untraced_wall_s: float,
    untraced_simulate_s: float,
    traced_wall_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by name.

    ``sim.events_per_s`` divides by the *untraced* simulation time:
    the spans inflate the traced one several times over.
    """
    n, s = tracer.count, tracer.seconds
    charges = n("energy.charge_tx") + n("energy.charge_rx")
    positions = n("mobility.position")
    values: Dict[str, float] = {
        "sim.events": events,
        "sim.run_until_s": s("sim.run_until"),
        "sim.events_per_s": _ratio(events, untraced_simulate_s),
        "mobility.position_calls": positions,
        "mobility.position_s": s("mobility.position"),
        "mobility.position_unique_ratio": _ratio(
            counts.unique_positions, positions
        ),
        "energy.charge_tx_calls": n("energy.charge_tx"),
        "energy.charge_rx_calls": n("energy.charge_rx"),
        "energy.charge_s": s("energy.charge_tx") + s("energy.charge_rx"),
        "registry.child_per_charge": _ratio(n("registry.child"), charges),
        "network.flood_rx_per_flood": _ratio(
            counts.flood_rx, n("network.flood")
        ),
        "embedding.run_s": s("embedding.run"),
        "embedding.self_s": tracer.self_seconds("embedding.run"),
        "maintenance.rounds": n("maintenance.round"),
        "maintenance.round_s": s("maintenance.round"),
        "routing.fallbacks": counts.fallbacks,
        "kautz.table_calls": n("kautz.table"),
        "discovery.queries": n("discovery.query"),
        "discovery.query_s": s("discovery.query"),
        "recovery.arq_sends": n("recovery.arq_send"),
        "recovery.arq_send_s": s("recovery.arq_send"),
        "telemetry.trace_s": s("telemetry.trace"),
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.traced_wall_s": traced_wall_s,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }
    for span in (
        "medium.can_transmit", "medium.link_quality", "medium.neighbors",
        "spatial.within_range", "registry.child", "network.send",
        "network.flood", "mac.transmit", "routing.send", "qos.submit",
    ):
        values[f"{span}_calls"] = n(span)
        values[f"{span}_s"] = s(span)
    for layer, seconds in self_seconds_by_layer(tracer).items():
        values[f"self.{layer}_s"] = seconds
    return {name: values[name] for name, _, _ in PER_LAYER}


def exact_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The count metrics, which must repeat exactly for one seed."""
    return {
        name: metrics[name] for name, unit, _ in PER_LAYER if unit == "count"
    }

