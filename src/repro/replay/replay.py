"""Recording runs and replaying traces with verification.

Replay is *re-execution under observation*: the world is rebuilt from the
scenario embedded in the trace header and run to completion with a
verifying tracer attached.  Every record the re-run emits is compared,
in order, against the recorded stream; the first difference raises
:class:`ReplayDivergence` with both records.  At the end, the footer's
metrics digest is checked against the re-run's
:class:`~repro.metrics.report.RunMetrics` — replaying a trace reproduces
the run's digest exactly or fails loudly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

from ..api.scenario import Scenario, canonical_json
from .signature import ReplaySignature
from .trace import TraceReader, TraceWriter, Tracer, attach_tracer, detach_tracer


class ReplayError(Exception):
    """A replay failed for a structural reason (not a divergence)."""


class ReplayDivergence(Exception):
    """A replayed run emitted a record differing from the trace."""

    def __init__(self, index: int, expected: Optional[List[object]], actual: Optional[List[object]]) -> None:
        self.index = index
        self.expected = expected
        self.actual = actual
        if expected is None:
            detail = "replay emitted extra record %r" % (actual,)
        elif actual is None:
            detail = "replay ended before emitting expected record %r" % (expected,)
        else:
            detail = "expected %r, replay emitted %r" % (expected, actual)
        super().__init__("divergence at record %d: %s" % (index, detail))


def metrics_digest(metrics) -> str:
    """Content digest of a :class:`RunMetrics` (canonical-JSON SHA-256)."""
    return hashlib.sha256(canonical_json(metrics.to_dict()).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of a verified replay."""

    trace_path: str
    records_checked: int
    events_processed: int
    metrics_digest: str
    time: float


def record_run(
    scenario: Scenario,
    seed: int,
    trace_path,
    baseline: bool = False,
    registry=None,
    timeout=None,
):
    """Execute one scenario point with trace capture; return its metrics.

    The trace is finalized atomically on success and discarded (aborted)
    if the run raises — including the :class:`TimeoutError` of a run
    that overruns ``timeout`` wall-clock seconds, counted from this call.
    Recording draws no randomness and never touches simulation state, so
    the returned metrics are bit-identical to a record-off
    :func:`~repro.api.session.execute_point` run.
    """
    from ..api.session import build_point_world
    from ..experiments.world import deadline_after

    deadline = deadline_after(timeout)
    world = build_point_world(scenario, seed, baseline=baseline, registry=registry)
    signature = ReplaySignature.for_point(scenario, seed, baseline)
    writer = TraceWriter(
        trace_path, signature, scenario.to_dict(), seed, baseline
    )
    # The sink is the writer's raw buffer append; the tracer's cold taps
    # drive the size-triggered flushes (writer=...).
    tracer = Tracer(world.simulator, writer.sink, writer=writer)
    attach_tracer(world, tracer)
    try:
        metrics = world.run(deadline=deadline)
    except BaseException:
        writer.abort()
        raise
    detach_tracer(world)
    writer.close(
        world.simulator.now, world.simulator.events_processed, metrics_digest(metrics)
    )
    return metrics


def replay_trace(path, registry=None) -> ReplayReport:
    """Replay the trace at ``path``, verifying every record and the digest.

    Raises :class:`~repro.replay.signature.SignatureMismatch` if the trace
    was recorded under incompatible code or scenario content,
    :class:`ReplayDivergence` at the first differing record, and
    :class:`ReplayError` if the footer's metrics digest or event count
    disagrees with the re-run even though every record matched.
    """
    from ..api.session import build_point_world

    with TraceReader(path) as reader:
        scenario = Scenario.from_dict(reader.scenario_dict)
        reader.signature.check_replayable(scenario, reader.seed, reader.baseline)

        world = build_point_world(
            scenario, reader.seed, baseline=reader.baseline, registry=registry
        )
        expected_stream = reader.records()
        state = {"index": 0}

        def verifying_sink(record: List[object]) -> None:
            expected = next(expected_stream, None)
            if expected != record:
                raise ReplayDivergence(state["index"], expected, record)
            state["index"] += 1

        tracer = Tracer(world.simulator, verifying_sink)
        attach_tracer(world, tracer)
        metrics = world.run()
        detach_tracer(world)

        leftover = next(expected_stream, None)
        if leftover is not None:
            raise ReplayDivergence(state["index"], leftover, None)

        footer = reader.read_footer()
        _, end_time, events_processed, recorded_digest = footer
        digest = metrics_digest(metrics)
        problems = []
        if digest != recorded_digest:
            problems.append(
                "metrics digest %s != recorded %s" % (digest, recorded_digest)
            )
        if world.simulator.events_processed != events_processed:
            problems.append(
                "events processed %d != recorded %d"
                % (world.simulator.events_processed, events_processed)
            )
        if problems:
            raise ReplayError(
                "replay of %s matched all %d records but diverged in the footer: %s"
                % (path, state["index"], "; ".join(problems))
            )
        return ReplayReport(
            trace_path=str(path),
            records_checked=state["index"],
            events_processed=int(events_processed),
            metrics_digest=digest,
            time=float(end_time),
        )
