"""Mid-run checkpoints: snapshot, restore, fork, and disk persistence.

A checkpoint is a pickled snapshot of the *entire*
:class:`~repro.experiments.world.World` taken between events: the event
heap (compacted first, so lazy-deleted entries are excluded), every named
RNG stream's exact generator state, the peer/AU/network/adversary object
graph, and the metric collectors.  Because the engine schedules exclusively
bound methods over plain data (no lambdas, closures, or live generators),
the world pickles cleanly, and a restored world resumes *bit-identically*: running to the
checkpoint time and then to the end produces the same metrics digest as an
uninterrupted run.

The headline workflow is **prefix forking**: simulate an expensive baseline
prefix once, checkpoint, then branch N different attack suffixes from the
same instant — each fork re-materializes the world and installs a fresh
adversary mid-timeline.
"""

from __future__ import annotations

import gzip
import pickle
from pathlib import Path
from typing import Optional

from .. import units
from ..crypto.hashing import NONCE_STREAM_VERSION
from ..sim.engine import KERNEL_VERSION
from .signature import SignatureMismatch
from .trace import attach_tracer, detach_tracer

#: Magic string identifying the checkpoint container format.
CHECKPOINT_FORMAT = "repro-replay-checkpoint"

#: Version of the checkpoint container; bump on layout changes.
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint could not be captured, restored, or loaded."""


def fault_fork_conflicts(plan, time: float) -> list:
    """Fault-plan sections whose windows open strictly before ``time``.

    Returns human-readable descriptions of every active crash/churn
    section and partition/degraded window that would already have been
    able to act before a fork at ``time`` — a forked run cannot reproduce
    those, so :meth:`Checkpoint.fork` refuses instead of silently
    diverging from the full run.
    """
    if plan is None:
        return []
    conflicts = []
    for name, spec in (("crash", plan.crash), ("churn", plan.churn)):
        if spec.active and time > spec.start_day * units.DAY:
            conflicts.append(
                "%s section opens at day %g" % (name, spec.start_day)
            )
    for index, window in enumerate(plan.partitions):
        if time > window.start_day * units.DAY:
            conflicts.append(
                "partition window %d opens at day %g" % (index, window.start_day)
            )
    for index, window in enumerate(plan.degraded_links):
        if time > window.start_day * units.DAY:
            conflicts.append(
                "degraded-link window %d opens at day %g"
                % (index, window.start_day)
            )
    return conflicts


class Checkpoint:
    """An immutable snapshot of a world at one simulation instant.

    The snapshot is held as pickle bytes rather than a live object graph:
    one ``pickle.dumps`` at capture plus one ``pickle.loads`` per restore
    is several times cheaper than the ``copy.deepcopy`` equivalents, which
    matters when a prefix-forked campaign restores the same checkpoint for
    every attack suffix.
    """

    __slots__ = ("time", "kernel_version", "nonce_stream_version", "_blob")

    def __init__(
        self,
        world,
        time: float,
        kernel_version: int = KERNEL_VERSION,
        nonce_stream_version: int = NONCE_STREAM_VERSION,
    ) -> None:
        self._blob = (
            world
            if isinstance(world, bytes)
            else pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.time = time
        self.kernel_version = kernel_version
        self.nonce_stream_version = nonce_stream_version

    # -- capture / restore -------------------------------------------------------

    @classmethod
    def capture(cls, world) -> "Checkpoint":
        """Snapshot ``world`` between events.

        Must not be called from inside a running event callback (the heap
        entry being executed would be mid-flight).  Any attached tracer is
        detached for the copy (its file sink is not copyable) and
        reattached afterwards; checkpoints therefore never embed tracers.
        """
        simulator = world.simulator
        if simulator._running:
            raise CheckpointError(
                "cannot capture a checkpoint from inside a running event callback"
            )
        tracer = getattr(world, "tracer", None)
        if tracer is not None:
            detach_tracer(world)
        try:
            simulator.compact()
            blob = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            if tracer is not None:
                attach_tracer(world, tracer)
        return cls(blob, time=simulator.now)

    @classmethod
    def capture_at(
        cls, world, time: float, deadline: Optional[float] = None
    ) -> "Checkpoint":
        """Run ``world`` forward to ``time`` and snapshot it there.

        Starts the world if needed and advances it with
        :meth:`World.advance` (never :meth:`World.run`, which would
        finalize metrics and mark the world completed), so ``deadline``
        bounds the prefix exactly as it bounds a run.  The caller keeps the
        live world: running it on to the horizon afterwards produces
        exactly the metrics an uninterrupted run would — this is how a
        prefix run doubles as the group's baseline point.
        """
        if world.completed:
            raise CheckpointError("cannot capture a prefix of a completed world")
        if not world.started:
            world.start()
        simulator = world.simulator
        if time < simulator.now:
            raise CheckpointError(
                "cannot capture at t=%g: world is already at t=%g"
                % (time, simulator.now)
            )
        world.advance(time, deadline=deadline)
        return cls.capture(world)

    def restore(self):
        """Materialize an independent world resumable from the checkpoint.

        Each call unpickles the held snapshot, so N restores give N fully
        independent timelines (forks never share mutable state).
        """
        return pickle.loads(self._blob)

    def fork(
        self,
        adversary_spec=None,
        registry=None,
        fault_plan=None,
        align_origin: bool = False,
    ):
        """Restore, then (optionally) unleash a fresh adversary mid-timeline.

        ``adversary_spec`` is an :class:`~repro.api.scenario.AdversarySpec`,
        a ``{"kind": ..., "params": {...}}`` dict, or None for a plain
        restore.  The adversary is built by ``registry`` (default:
        :data:`~repro.api.registry.DEFAULT_REGISTRY`) against the restored
        world, exactly as a from-scratch run would build it — its RNG lanes
        come from the restored stream factory, so a forked attack is itself
        deterministic and checkpointable.

        ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan` or its dict
        form) attaches a fault engine to the fork.  Every active section's
        window must open at or after the checkpoint time; a crash/churn/
        partition window that opens *before* the fork point would already
        have acted in a from-scratch run, so the fork refuses with a
        :class:`CheckpointError` naming the offending sections instead of
        silently diverging.

        ``align_origin=True`` starts the adversary as if it had been
        installed at t=0: its idle schedule prefix (zero-intensity windows
        before the attack onset) is replayed as bookkeeping, the skipped
        begin/end events are credited to the simulator's event counter, and
        the next window event lands at the exact time a full run fires it —
        making the forked run's metrics digest bit-identical to running the
        whole scenario from scratch.  The default (False) keeps the
        exploratory behavior: the adversary's schedule starts at the fork
        instant.
        """
        world = self.restore()
        if fault_plan is not None:
            if getattr(world, "fault_engine", None) is not None:
                raise CheckpointError(
                    "checkpointed world already has a fault engine; "
                    "fork suffixes must add faults to a fault-free prefix"
                )
            from ..faults.plan import FaultPlan

            plan = (
                FaultPlan.from_dict(fault_plan)
                if isinstance(fault_plan, dict)
                else fault_plan
            )
            if plan.is_active():
                conflicts = fault_fork_conflicts(plan, self.time)
                if conflicts:
                    raise CheckpointError(
                        "fault plan opens before the fork point "
                        "(t=%g s = day %g): %s; capture the prefix at or "
                        "before the earliest fault onset, or run the point "
                        "without forking"
                        % (self.time, self.time / units.DAY, "; ".join(conflicts))
                    )
                from ..faults.engine import FaultEngine

                engine = FaultEngine(world, plan)
                world.fault_engine = engine
                if world.started:
                    engine.start()
        if adversary_spec is None:
            return world
        if world.adversary is not None:
            raise CheckpointError(
                "checkpointed world already has an adversary; "
                "fork suffixes must branch from a baseline prefix"
            )
        if registry is None:
            from ..api.registry import DEFAULT_REGISTRY

            registry = DEFAULT_REGISTRY
        if isinstance(adversary_spec, dict):
            kind = adversary_spec["kind"]
            params = dict(adversary_spec.get("params") or {})
        else:
            kind = adversary_spec.kind
            params = dict(adversary_spec.params or {})
        factory = registry.factory(kind, **params)
        adversary = factory(world)
        world.adversary = adversary
        if world.started:
            adversary.install(world.peers)
            if align_origin and self.time > 0:
                starter = getattr(adversary, "start_forked", None)
                if starter is None:
                    raise CheckpointError(
                        "adversary kind %r cannot be origin-aligned at a "
                        "mid-run fork; run the point without forking" % (kind,)
                    )
                try:
                    skipped = starter(self.time)
                except ValueError as exc:
                    raise CheckpointError(str(exc))
                world.simulator.events_processed += skipped
            else:
                adversary.start()
        return world

    # -- disk persistence ----------------------------------------------------------

    def save(self, path) -> Path:
        """Persist the checkpoint as a gzipped pickle."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # ``world`` is the snapshot's pickle bytes (a pre-blob checkpoint
        # file holding a live world object loads fine: ``__init__`` pickles
        # whatever it is handed).
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "kernel_version": self.kernel_version,
            "nonce_stream_version": self.nonce_stream_version,
            "time": self.time,
            "world": self._blob,
        }
        with gzip.open(path, "wb", compresslevel=1) as stream:
            pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Load a checkpoint, refusing version drift.

        A checkpoint resumes *inside* the event kernel's semantics, so a
        kernel or nonce-scheme version change makes resumed digests
        meaningless; loading raises :class:`SignatureMismatch` instead of
        silently producing a divergent timeline.
        """
        path = Path(path)
        try:
            with gzip.open(path, "rb") as stream:
                payload = pickle.load(stream)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise CheckpointError("cannot load checkpoint %s: %s" % (path, exc))
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError("%s is not a replay checkpoint" % path)
        mismatches = []
        for field_name, expected in (
            ("version", CHECKPOINT_VERSION),
            ("kernel_version", KERNEL_VERSION),
            ("nonce_stream_version", NONCE_STREAM_VERSION),
        ):
            if payload.get(field_name) != expected:
                mismatches.append(
                    "%s: checkpoint has %r, current code expects %r"
                    % (field_name, payload.get(field_name), expected)
                )
        if mismatches:
            raise SignatureMismatch(
                "checkpoint is not resumable under the current code: "
                + "; ".join(mismatches)
            )
        return cls(
            payload["world"],
            time=payload["time"],
            kernel_version=payload["kernel_version"],
            nonce_stream_version=payload["nonce_stream_version"],
        )
