"""Which functions belong to which layer, and the per-layer metric names.

Layer names are the repository's module names.  :data:`TARGETS` is what
:mod:`perf.trace` wraps; a path ending in ``.*`` takes every plain method the
class defines.  Private names appear only where an event callback or an I/O
step has no public entry point (the engine calls ``Network._deliver`` and the
poller's timeouts directly); a target that stops resolving after a refactor
is reported in ``trace.unresolved_targets``, never a crash.

Heap pushes (``Simulator.post``/``schedule``) are wrapped too, so the time to
schedule an event counts for ``sim.engine`` and not for the layer that asked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Tuple


@dataclass(frozen=True)
class Target:
    path: str
    layer: str
    #: keep every call as a span (coarse operations only)
    span: bool = False
    #: ``(args, kwargs, result) -> number`` summed into the target's ``hits``
    measure: Optional[Callable] = None
    #: ``(args, kwargs, result) -> str``: the identifier spans of one point share
    ident: Optional[Callable] = None


def _digest_arg(args, kwargs, result):
    """``store.save_json(kind, digest, payload)`` and friends."""
    return args[2]


def _lease_digest(args, kwargs, result):
    return args[1].digest


def _body_digest(args, kwargs, result):
    """``handle(method, path, body)`` / ``request(method, path, payload)``."""
    body = args[3] if len(args) > 3 else None
    return body.get("digest") if isinstance(body, dict) else None


TARGETS: Tuple[Target, ...] = (
    # -- kernel ---------------------------------------------------------------------------
    Target("repro.sim.engine.Simulator.run", "sim.engine"),
    Target("repro.sim.engine.Simulator.run_slice", "sim.engine"),
    Target("repro.sim.engine.Simulator.post", "sim.engine"),
    Target("repro.sim.engine.Simulator.post_at", "sim.engine"),
    Target("repro.sim.engine.Simulator.schedule", "sim.engine"),
    Target("repro.sim.engine.Simulator.schedule_at", "sim.engine"),
    Target("repro.sim.engine.Simulator.call_every", "sim.engine"),
    Target("repro.sim.network.Network.send", "sim.network"),
    Target("repro.sim.network.Network._deliver", "sim.network"),
    # -- protocol -------------------------------------------------------------------------
    Target("repro.core.peer.Peer.receive_message", "core.peer"),
    Target("repro.core.peer.Peer.start_poll", "core.peer"),
    Target("repro.core.peer.Peer.on_poll_concluded", "core.peer"),
    Target("repro.core.peer.Peer.add_au", "core.peer"),
    Target("repro.core.peer.Peer.start", "core.peer"),
    Target("repro.core.peer.Peer.crash", "core.peer"),
    Target("repro.core.peer.Peer.restart", "core.peer"),
    Target(
        "repro.core.admission.AdmissionControl.consider",
        "core.admission",
        measure=lambda args, kwargs, result: result.admitted,
    ),
    Target("repro.core.poller.PollerPoll.*", "core.poller"),
    Target("repro.core.voter.VoterSession.*", "core.voter"),
    Target("repro.crypto.effort.EffortScheme.*", "crypto.effort"),
    Target("repro.crypto.effort.charge_account", "crypto.effort"),
    Target("repro.storage.failure.StorageFailureModel.*", "storage"),
    Target("repro.storage.replica.Replica.damage_block", "storage"),
    Target("repro.storage.replica.Replica.repair_block", "storage"),
    Target("repro.metrics.access.AccessFailureSampler.*", "metrics"),
    Target("repro.metrics.polls.PollStatistics.record_poll", "metrics"),
    Target(
        "repro.metrics.polls.PollStatistics.mean_time_between_successful_polls",
        "metrics",
    ),
    # -- adversary and faults -------------------------------------------------------------
    Target("repro.adversary.base.Adversary.*", "adversary"),
    Target("repro.adversary.composed.ComposedAdversary.*", "adversary"),
    Target("repro.adversary.vectors.PipeStoppageVector.*", "adversary"),
    Target("repro.adversary.vectors.AdmissionFloodVector.*", "adversary"),
    Target("repro.adversary.vectors.BruteForcePollVector.*", "adversary"),
    Target("repro.faults.engine.FaultEngine.*", "faults"),
    # -- world ----------------------------------------------------------------------------
    Target("repro.experiments.world.build_world", "experiments.world", span=True),
    Target("repro.experiments.world.World.start", "experiments.world"),
    Target(
        "repro.experiments.world.World.metrics",
        "experiments.world",
        # called once per world, at the end of its run
        measure=lambda args, kwargs, result: args[0].simulator.events_processed,
    ),
    # -- api ------------------------------------------------------------------------------
    Target("repro.api.scenario.Scenario.digest", "api.scenario"),
    Target("repro.api.scenario.Scenario.point_digest", "api.scenario"),
    Target("repro.api.scenario.Scenario.to_dict", "api.scenario"),
    Target("repro.api.scenario.Scenario.from_dict", "api.scenario"),
    Target("repro.api.scenario.Scenario.resolve", "api.scenario"),
    Target("repro.api.scenario.clone_point_scenario", "api.scenario"),
    Target("repro.api.scenario.apply_axis_value", "api.scenario"),
    Target("repro.api.campaign.Campaign.expand", "api.campaign"),
    Target("repro.api.campaign.Campaign.to_dict", "api.campaign"),
    Target("repro.api.campaign.Campaign.from_dict", "api.campaign"),
    Target("repro.api.campaign.CampaignRunner.run", "api.campaign", span=True),
    Target("repro.api.campaign.CampaignRunner.status", "api.campaign"),
    Target("repro.api.campaign.CampaignRunner.rows", "api.campaign", span=True),
    Target("repro.api.campaign.CampaignRunner.result_set", "api.campaign"),
    Target("repro.api.campaign.CampaignRunner._load_point", "api.campaign"),
    Target("repro.api.campaign.CampaignRunner._write_manifest", "api.campaign"),
    Target(
        "repro.api.session.Session.run",
        "api.session",
        span=True,
        ident=lambda args, kwargs, result: result.scenario_digest,
    ),
    Target("repro.api.session.Session.run_all", "api.session", span=True),
    Target("repro.api.session.Session.run_metrics", "api.session"),
    Target("repro.api.session.Session.run_fork_groups", "api.session"),
    Target("repro.api.session.execute_point", "api.session"),
    Target("repro.api.resultset.ResultSet.rows", "api.resultset"),
    Target("repro.api.resultset.export_rows", "api.resultset"),
    Target(
        "repro.api.store.ResultStore.save_json",
        "api.store",
        span=True,
        measure=lambda args, kwargs, result: result.stat().st_size,
        ident=_digest_arg,
    ),
    Target(
        "repro.api.store.ResultStore.load_json",
        "api.store",
        span=True,
        ident=_digest_arg,
    ),
    Target("repro.api.store.ResultStore.has", "api.store"),
    Target("repro.api.store.ResultStore.check_trace", "api.store"),
    Target("repro.api.store.ResultStore.trace_paths", "api.store"),
    Target("repro.api.store.ResultStore.stats", "api.store"),
    # -- service --------------------------------------------------------------------------
    Target(
        "repro.service.sqlite_store.SQLiteResultStore.save_json",
        "service.sqlite_store",
        span=True,
        measure=lambda args, kwargs, result: len(
            json.dumps(args[3], sort_keys=True).encode("utf-8")
        ),
        ident=_digest_arg,
    ),
    Target(
        "repro.service.sqlite_store.SQLiteResultStore.load_json",
        "service.sqlite_store",
        span=True,
        ident=_digest_arg,
    ),
    Target("repro.service.sqlite_store.SQLiteResultStore.has", "service.sqlite_store"),
    Target("repro.service.sqlite_store.SQLiteResultStore.stats", "service.sqlite_store"),
    Target("repro.service.broker.Broker.submit", "service.broker", span=True),
    Target(
        "repro.service.broker.Broker.lease",
        "service.broker",
        span=True,
        measure=lambda args, kwargs, result: result is None,
        ident=lambda args, kwargs, result: result.digest if result else None,
    ),
    Target("repro.service.broker.Broker.heartbeat", "service.broker"),
    Target("repro.service.broker.Broker.complete", "service.broker", span=True),
    Target("repro.service.broker.Broker.fail", "service.broker"),
    Target("repro.service.broker.Broker.status", "service.broker"),
    Target("repro.service.broker.Broker.campaign", "service.broker"),
    Target("repro.service.broker.Broker.outstanding", "service.broker"),
    Target(
        "repro.service.http_api.ExperimentService.handle",
        "service.http_api",
        span=True,
        measure=lambda args, kwargs, result: result[0] >= 300,
        ident=_body_digest,
    ),
    Target(
        "repro.service.worker.HttpBrokerClient.request",
        "service.http_api",
        ident=_body_digest,
    ),
    Target(
        "repro.service.worker.HttpBrokerClient.lease",
        "service.http_api",
        span=True,
        ident=lambda args, kwargs, result: result[0].digest if result[0] else None,
    ),
    Target(
        "repro.service.worker.HttpBrokerClient.complete",
        "service.http_api",
        span=True,
        ident=_lease_digest,
    ),
    Target(
        "repro.service.worker.Worker.run",
        "service.worker",
        span=True,
        measure=lambda args, kwargs, result: args[0].heartbeat_failures,
    ),
    Target(
        "repro.service.worker.Worker.run_point",
        "service.worker",
        span=True,
        ident=_lease_digest,
    ),
    Target("repro.service.worker.run_payloads", "service.worker"),
    # -- replay ---------------------------------------------------------------------------
    Target("repro.replay.trace.Tracer.*", "replay.trace.tap"),
    Target("repro.replay.trace.TraceWriter.write", "replay.trace.write"),
    Target("repro.replay.trace.TraceWriter.maybe_flush", "replay.trace.write"),
    Target("repro.replay.trace.TraceWriter._flush", "replay.trace.write"),
    Target(
        "repro.replay.trace.TraceWriter.close",
        "replay.trace.write",
        span=True,
        measure=lambda args, kwargs, result: result.stat().st_size,
        ident=lambda args, kwargs, result: result.name,
    ),
    Target("repro.replay.trace.attach_tracer", "replay.trace.tap"),
    Target("repro.replay.trace.detach_tracer", "replay.trace.tap"),
    Target("repro.replay.replay.record_run", "replay.replay", span=True),
    Target(
        "repro.replay.replay.replay_trace",
        "replay.replay",
        span=True,
        measure=lambda args, kwargs, result: result.records_checked,
        ident=lambda args, kwargs, result: str(args[0]).rsplit("/", 1)[-1],
    ),
    Target("repro.replay.replay.metrics_digest", "replay.replay"),
    Target("repro.replay.trace._load_line", "replay.replay.read"),
    Target("repro.replay.checkpoint.Checkpoint.capture", "replay.checkpoint"),
    Target("repro.replay.checkpoint.Checkpoint.restore", "replay.checkpoint"),
    # -- telemetry ------------------------------------------------------------------------
    Target("repro.telemetry.bus.EventBus.publish", "telemetry"),
    Target("repro.telemetry.bus.Subscription.drain", "telemetry"),
    Target("repro.telemetry.stream.attach_world_bus", "telemetry"),
    Target("repro.telemetry.stream.publish_run_event", "telemetry"),
    Target("repro.telemetry.stream.publish_campaign_progress", "telemetry"),
    Target("repro.telemetry.metrics.MetricsAggregator.pump", "telemetry"),
)


#: ``(name, unit, better)`` of every per-layer metric, in report order.  The
#: end-to-end metric each one should move, and on which workload, is the
#: table in ``perf/README.md``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("sim.network.sends", "count", "lower"),
    ("sim.network.self_s", "s", "lower"),
    ("sim.network.delivered_share", "ratio", "higher"),
    ("core.peer.messages", "count", "lower"),
    ("core.peer.self_s", "s", "lower"),
    ("core.admission.decisions", "count", "lower"),
    ("core.admission.self_s", "s", "lower"),
    ("core.admission.admitted_share", "ratio", "lower"),
    ("core.poller.polls", "count", "lower"),
    ("core.poller.self_s", "s", "lower"),
    ("core.poller.success_share", "ratio", "higher"),
    ("core.voter.self_s", "s", "lower"),
    ("crypto.effort.self_s", "s", "lower"),
    ("storage.self_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("adversary.calls", "count", "lower"),
    ("adversary.self_s", "s", "lower"),
    ("faults.self_s", "s", "lower"),
    ("experiments.world.builds", "count", "lower"),
    ("experiments.world.build_s", "s", "lower"),
    ("api.scenario.digest_calls", "count", "lower"),
    ("api.scenario.self_s", "s", "lower"),
    ("api.campaign.expand_s", "s", "lower"),
    ("api.campaign.self_s", "s", "lower"),
    ("api.campaign.manifest_writes", "count", "lower"),
    ("api.session.self_s", "s", "lower"),
    ("api.session.cache_hit_share", "ratio", "higher"),
    ("api.resultset.export_s", "s", "lower"),
    ("api.store.save_calls", "count", "lower"),
    ("api.store.save_s", "s", "lower"),
    ("api.store.load_calls", "count", "lower"),
    ("api.store.load_s", "s", "lower"),
    ("api.store.bytes_written", "bytes", "lower"),
    ("service.sqlite_store.save_calls", "count", "lower"),
    ("service.sqlite_store.save_s", "s", "lower"),
    ("service.sqlite_store.load_calls", "count", "lower"),
    ("service.sqlite_store.load_s", "s", "lower"),
    ("service.sqlite_store.bytes_written", "bytes", "lower"),
    ("service.broker.submit_s", "s", "lower"),
    ("service.broker.lease_calls", "count", "lower"),
    ("service.broker.lease_self_s", "s", "lower"),
    ("service.broker.complete_self_s", "s", "lower"),
    ("service.broker.empty_lease_share", "ratio", "lower"),
    ("service.http_api.requests", "count", "lower"),
    ("service.http_api.handle_self_s", "s", "lower"),
    ("service.http_api.lease_rtt_p50_ms", "ms", "lower"),
    ("service.http_api.lease_rtt_p90_ms", "ms", "lower"),
    ("service.http_api.complete_rtt_p50_ms", "ms", "lower"),
    ("service.http_api.complete_rtt_p90_ms", "ms", "lower"),
    ("service.http_api.non2xx", "count", "lower"),
    ("service.worker.busy_share", "ratio", "higher"),
    ("service.worker.idle_s", "s", "lower"),
    ("service.worker.point_p50_ms", "ms", "lower"),
    ("service.worker.point_p90_ms", "ms", "lower"),
    ("service.worker.heartbeat_failures", "count", "lower"),
    ("replay.trace.records", "count", "lower"),
    ("replay.trace.tap_self_s", "s", "lower"),
    ("replay.trace.write_s", "s", "lower"),
    ("replay.trace.bytes_per_record", "bytes", "lower"),
    ("replay.replay.records_checked", "count", "lower"),
    ("replay.replay.read_s", "s", "lower"),
    ("replay.checkpoint.capture_ms", "ms", "lower"),
    ("replay.checkpoint.restore_ms", "ms", "lower"),
    ("replay.checkpoint.bytes", "bytes", "lower"),
    ("telemetry.bus.published", "count", "lower"),
    ("telemetry.bus.dropped", "count", "lower"),
    ("telemetry.stream.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.unresolved_targets", "count", "lower"),
)


def layer_group(layer: str) -> str:
    """Ledger layer of a tracing layer (sub-layers fold into their module)."""
    for prefix in ("replay.trace", "replay.replay"):
        if layer.startswith(prefix):
            return prefix
    return layer
