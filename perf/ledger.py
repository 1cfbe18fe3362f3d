"""From the traced round's raw ledgers to the per-layer metrics and layer shares.

A *ledger* is one process's :meth:`perf.trace.Tracer.snapshot`.  The traced
round of a workload yields the harness's ledger and, for the fleet, one for
the server and one per worker; they are kept apart by role so ``service.*``
can be read for the server and the workers separately.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .layers import PER_LAYER, layer_group
from .trace import covered_seconds

Ledgers = Dict[str, List[Dict[str, object]]]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def merged_targets(ledgers: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for ledger in ledgers:
        for name, record in ledger["targets"].items():
            into = merged.setdefault(
                name,
                {"layer": record["layer"], "calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0},
            )
            for key in ("calls", "total_s", "self_s", "hits"):
                into[key] += record[key]
    return merged


def layer_self_seconds(targets: Dict[str, Dict[str, float]], fold: bool = True) -> Dict[str, float]:
    """Self time per layer; ``fold`` merges sub-layers into their module."""
    layers: Dict[str, float] = {}
    for record in targets.values():
        layer = layer_group(record["layer"]) if fold else record["layer"]
        layers[layer] = layers.get(layer, 0.0) + record["self_s"]
    return layers


def layer_shares(ledgers: Ledgers) -> Dict[str, Dict[str, float]]:
    """Per role: each layer's share of the self time traced in that role."""
    shares: Dict[str, Dict[str, float]] = {}
    for role, group in ledgers.items():
        layers = layer_self_seconds(merged_targets(group))
        total = sum(layers.values())
        if total > 0:
            shares[role] = {
                layer: seconds / total
                for layer, seconds in sorted(layers.items(), key=lambda item: -item[1])
            }
    return shares


def span_ms(ledgers: Sequence[Dict[str, object]], name: str) -> List[float]:
    return [
        span["duration_s"] * 1000.0
        for ledger in ledgers
        for span in ledger["spans"]
        if span["name"] == name
    ]


def unresolved_targets(ledgers: Ledgers) -> List[str]:
    return sorted({name for group in ledgers.values() for ledger in group for name in ledger["unresolved"]})


def per_layer_metrics(
    trace: Dict[str, object], traced_round: Dict[str, object], untraced_wall_s: float
) -> Dict[str, float]:
    """Every metric of :data:`perf.layers.PER_LAYER`, by name."""
    ledgers: Ledgers = trace["ledgers"]
    everything = [ledger for group in ledgers.values() for ledger in group]
    targets = merged_targets(everything)
    layers = layer_self_seconds(targets, fold=False)
    workers = ledgers.get("workers", [])

    def of(name: str, key: str = "calls") -> float:
        return targets.get(name, {}).get(key, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def layer_calls(layer: str) -> float:
        return sum(r["calls"] for r in targets.values() if r["layer"] == layer)

    events = of("experiments.world.World.metrics", "hits")
    sends = of("sim.network.Network.send")
    received = sum(
        record["calls"] for name, record in targets.items() if name.endswith(".receive_message")
    )
    polls = trace["polls"]
    builds = trace["run_phase_builds"] + sum(
        ledger["targets"].get("experiments.world.build_world", {}).get("calls", 0)
        for ledger in workers
    )
    busy = [
        interval for ledger in everything for interval in ledger["busy"]
    ]
    window_start, window_end = trace["window"]
    records = trace["records"]
    probes = trace["probes"]

    values = {
        "sim.engine.events": events,
        "sim.engine.self_s": layers.get("sim.engine", 0.0),
        "sim.engine.us_per_event": ratio(layers.get("sim.engine", 0.0) * 1e6, events),
        "sim.network.sends": sends,
        "sim.network.self_s": layers.get("sim.network", 0.0),
        "sim.network.delivered_share": ratio(received, sends),
        "core.peer.messages": of("core.peer.Peer.receive_message"),
        "core.peer.self_s": layers.get("core.peer", 0.0),
        "core.admission.decisions": of("core.admission.AdmissionControl.consider"),
        "core.admission.self_s": layers.get("core.admission", 0.0),
        "core.admission.admitted_share": ratio(
            of("core.admission.AdmissionControl.consider", "hits"),
            of("core.admission.AdmissionControl.consider"),
        ),
        "core.poller.polls": of("core.poller.PollerPoll.start"),
        "core.poller.self_s": layers.get("core.poller", 0.0),
        "core.poller.success_share": ratio(polls[0], polls[0] + polls[1]),
        "core.voter.self_s": layers.get("core.voter", 0.0),
        "crypto.effort.self_s": layers.get("crypto.effort", 0.0),
        "storage.self_s": layers.get("storage", 0.0),
        "metrics.self_s": layers.get("metrics", 0.0),
        "adversary.calls": layer_calls("adversary"),
        "adversary.self_s": layers.get("adversary", 0.0),
        "faults.self_s": layers.get("faults", 0.0),
        "experiments.world.builds": of("experiments.world.build_world"),
        "experiments.world.build_s": of("experiments.world.build_world", "total_s"),
        "api.scenario.digest_calls": of("api.scenario.Scenario.digest")
        + of("api.scenario.Scenario.point_digest"),
        "api.scenario.self_s": layers.get("api.scenario", 0.0),
        "api.campaign.expand_s": of("api.campaign.Campaign.expand", "total_s"),
        "api.campaign.self_s": layers.get("api.campaign", 0.0),
        "api.campaign.manifest_writes": of("api.campaign.CampaignRunner._write_manifest"),
        "api.session.self_s": layers.get("api.session", 0.0),
        "api.session.cache_hit_share": max(
            0.0, 1.0 - ratio(builds, trace["runs_requested"])
        ),
        "api.resultset.export_s": of("api.resultset.export_rows", "total_s"),
        "replay.trace.records": records,
        "replay.trace.tap_self_s": layers.get("replay.trace.tap", 0.0),
        "replay.trace.write_s": layers.get("replay.trace.write", 0.0),
        "replay.trace.bytes_per_record": ratio(
            of("replay.trace.TraceWriter.close", "hits"), records
        ),
        "replay.replay.records_checked": of("replay.replay.replay_trace", "hits"),
        "replay.replay.read_s": layers.get("replay.replay.read", 0.0),
        "replay.checkpoint.capture_ms": probes["checkpoint"]["capture_ms"],
        "replay.checkpoint.restore_ms": probes["checkpoint"]["restore_ms"],
        "replay.checkpoint.bytes": probes["checkpoint"]["bytes"],
        "telemetry.bus.published": probes["telemetry"]["published"],
        "telemetry.bus.dropped": probes["telemetry"]["dropped"],
        "telemetry.stream.self_s": probes["telemetry"]["self_s"],
        "service.broker.submit_s": of("service.broker.Broker.submit", "total_s"),
        "service.broker.lease_calls": of("service.broker.Broker.lease"),
        "service.broker.lease_self_s": of("service.broker.Broker.lease", "self_s"),
        "service.broker.complete_self_s": of("service.broker.Broker.complete", "self_s"),
        "service.broker.empty_lease_share": ratio(
            of("service.broker.Broker.lease", "hits"), of("service.broker.Broker.lease")
        ),
        "service.http_api.requests": of("service.http_api.ExperimentService.handle"),
        "service.http_api.handle_self_s": of(
            "service.http_api.ExperimentService.handle", "self_s"
        ),
        "service.http_api.non2xx": of("service.http_api.ExperimentService.handle", "hits"),
        "service.worker.busy_share": ratio(
            of("service.worker.Worker.run_point", "total_s"),
            of("service.worker.Worker.run", "total_s"),
        ),
        "service.worker.idle_s": of("service.worker.Worker.run", "self_s"),
        "service.worker.heartbeat_failures": of("service.worker.Worker.run", "hits"),
        "cli.import_s": traced_round["import_s"],
        "trace.overhead_ratio": ratio(traced_round["wall_s"], untraced_wall_s),
        "trace.unattributed_share": 1.0
        - ratio(
            covered_seconds(busy, window_start, window_end), window_end - window_start
        ),
        "trace.unresolved_targets": len(unresolved_targets(ledgers)),
    }
    for store, prefix in (
        ("api.store", "api.store.ResultStore"),
        ("service.sqlite_store", "service.sqlite_store.SQLiteResultStore"),
    ):
        values[store + ".save_calls"] = of(prefix + ".save_json")
        values[store + ".save_s"] = of(prefix + ".save_json", "total_s")
        values[store + ".load_calls"] = of(prefix + ".load_json")
        values[store + ".load_s"] = of(prefix + ".load_json", "total_s")
        values[store + ".bytes_written"] = of(prefix + ".save_json", "hits")
    for metric, span in (
        ("service.http_api.lease_rtt", "service.worker.HttpBrokerClient.lease"),
        ("service.http_api.complete_rtt", "service.worker.HttpBrokerClient.complete"),
        ("service.worker.point", "service.worker.Worker.run_point"),
    ):
        samples = span_ms(workers, span)
        values[metric + "_p50_ms"] = percentile(samples, 0.5)
        values[metric + "_p90_ms"] = percentile(samples, 0.9)
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
