"""Scenario execution sessions.

A :class:`Session` is the one entry point for running experiments: it takes
declarative :class:`~repro.api.scenario.Scenario` objects, executes their
multi-seed (and, through ``run_all``, multi-point) runs either serially or on a
process pool, compares attacked runs against matching no-adversary baselines, and
caches every per-seed run by content digest — in memory and, when a
:class:`~repro.api.store.ResultStore` is attached, on disk.

Determinism: each (configuration, seed) run is a pure function of its
resolved configuration (see :mod:`repro.sim.randomness`), and results are
keyed and assembled by digest rather than completion order, so a parallel
session produces bit-identical metrics to a serial one.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import time
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics.report import (
    AttackAssessment,
    RunMetrics,
    average_metrics,
    compare_runs,
)
from .registry import DEFAULT_REGISTRY, AdversaryRegistry
from .scenario import RunKey, Scenario
from .store import ResultStore

logger = logging.getLogger(__name__)


@dataclass
class ExperimentResult:
    """Averaged attacked-vs-baseline comparison for one scenario point."""

    label: str
    assessment: AttackAssessment
    attacked_runs: List[RunMetrics] = field(default_factory=list)
    baseline_runs: List[RunMetrics] = field(default_factory=list)
    parameters: Dict[str, object] = field(default_factory=dict)
    #: Content digest of the scenario that produced this result (when run
    #: through a :class:`Session` or loaded by a campaign runner).
    scenario_digest: Optional[str] = None


def assemble_result(
    scenario: Scenario,
    digest: str,
    run_keys: Sequence[RunKey],
    runs: Mapping[str, RunMetrics],
) -> ExperimentResult:
    """A point's result: its attacked runs compared with its baseline runs.

    ``runs`` maps the digests of ``run_keys`` (``Scenario.run_keys()``) to
    metrics.  Sessions and campaign reports both assemble here, so a result
    is derived from the runs and never stored."""
    attacked = [runs[key] for _, baseline, key in run_keys if not baseline]
    # No baseline key means no adversary: the baseline *is* the attacked run.
    baseline = [runs[key] for _, side, key in run_keys if side] or attacked
    return ExperimentResult(
        label=scenario.name,
        assessment=compare_runs(average_metrics(attacked), average_metrics(baseline)),
        attacked_runs=attacked,
        baseline_runs=baseline,
        parameters=dict(scenario.parameters),
        scenario_digest=digest,
    )


def build_point_world(
    scenario: Scenario,
    seed: int,
    baseline: bool = False,
    registry: Optional[AdversaryRegistry] = None,
):
    """Build (but do not run) the world for one scenario point.

    The unrun world is what the replay subsystem needs: record mode
    attaches its tracer before the first event, and checkpoint workflows
    advance it in stages.
    """
    # Imported lazily so that ``repro.experiments`` (whose artifact modules
    # import this package) is never re-entered during module initialization.
    from ..experiments.world import build_world

    protocol, sim = scenario.resolve(seed=seed)
    factory = None
    if not baseline and scenario.adversary is not None:
        active_registry = registry if registry is not None else DEFAULT_REGISTRY
        factory = active_registry.factory(
            scenario.adversary.kind, **scenario.adversary.params
        )
    return build_world(
        protocol, sim, adversary_factory=factory, fault_plan=scenario.faults or None
    )


def execute_point(
    scenario: Scenario,
    seed: int,
    baseline: bool = False,
    registry: Optional[AdversaryRegistry] = None,
    trace_path: Optional[str] = None,
    bus: Optional[object] = None,
    control: Optional[object] = None,
    run_id: Optional[str] = None,
    timeout: Optional[float] = None,
) -> RunMetrics:
    """Build and run one world for ``scenario`` at ``seed``.

    With ``baseline=True`` the adversary spec is ignored, producing the
    matching no-attack run the paper's ratio metrics are defined against.
    With ``trace_path`` the run is captured as a replay trace (see
    :mod:`repro.replay`); recording never perturbs the metrics.

    ``bus`` (a :class:`~repro.telemetry.bus.EventBus`) attaches the
    telemetry taps to the world before it runs, publishing poll /
    admission / damage / window / fault events scoped to ``run_id``;
    ``control`` gates execution for pause/step debugging.  Neither
    perturbs the run.  Record mode owns the single per-site tracer
    attribute, so a recorded run publishes no in-simulation events (its
    lifecycle events still flow from the session).  A run still going
    ``timeout`` wall-clock seconds after this call raises
    :class:`TimeoutError` (see :meth:`World.advance
    <repro.experiments.world.World.advance>`).
    """
    if trace_path is not None:
        from ..replay import record_run

        return record_run(scenario, seed, trace_path, baseline, registry, timeout)
    from ..experiments.world import deadline_after

    deadline = deadline_after(timeout)
    world = build_point_world(scenario, seed, baseline=baseline, registry=registry)
    if bus is None:
        return world.run(control=control, deadline=deadline)
    from ..telemetry.stream import attach_world_bus

    tracer = attach_world_bus(world, bus, run=run_id)
    metrics = world.run(control=control, deadline=deadline)
    # Dense topics batch inside the tracer; push the partial batches so
    # subscribers see the run's tail.
    tracer.flush()
    return metrics


def _execute_payload(payload: Tuple[Callable[..., object], str, tuple, dict]) -> object:
    """Process-pool entry point: ``(function, scenario JSON, args, kwargs)``.

    Calls ``function`` — :func:`execute_point` or :func:`execute_fork_group`
    — on the decoded scenario.  Worker processes resolve adversary kinds
    against the default registry, so custom adversaries must be registered
    at import time of an importable module to be available under
    ``workers > 1``.
    """
    function, scenario_json, args, kwargs = payload
    return function(Scenario.from_json(scenario_json), *args, **kwargs)


@dataclass
class ForkGroup:
    """One shared-prefix fork unit: a baseline prefix plus attack suffixes.

    ``scenario`` is any member point's scenario — only its baseline side
    (protocol, sim, faults) is simulated, so every member must agree on it
    (they share the baseline point digest by construction).  ``members``
    pairs each wanted run digest with its raw adversary spec dict
    (``{"kind": ..., "params": {...}}``), or ``None`` for the baseline run,
    which is produced by simply continuing the prefix world to the horizon.
    ``checkpoint_digest`` keys the persisted prefix checkpoint artifact;
    it covers the baseline run digest *and* the fork time, so resumed and
    worker campaigns only reuse a checkpoint captured at the same instant.
    """

    scenario: Scenario
    seed: int
    fork_time: float
    checkpoint_digest: str
    members: List[Tuple[str, Optional[Dict[str, object]]]]


def execute_fork_group(
    scenario: Scenario,
    seed: int,
    fork_time: float,
    members: Sequence[Tuple[str, Optional[Dict[str, object]]]],
    registry: Optional[AdversaryRegistry] = None,
    checkpoint_path: Optional[str] = None,
    timeout: Optional[float] = None,
) -> Dict[str, RunMetrics]:
    """Run one fork group; returns run metrics keyed by run digest.

    Simulates the shared baseline prefix once up to ``fork_time`` (or loads
    the persisted checkpoint at ``checkpoint_path`` and skips the prefix
    entirely), captures it, then branches every attacked member from the
    checkpoint with an origin-aligned adversary — so each forked run's
    metrics are bit-identical to simulating that point from scratch.  The
    baseline member (spec ``None``) is the prefix world continued to the
    horizon.  A missing or unreadable checkpoint file is recaptured and
    rewritten atomically; a version-drifted one is recaptured too (the
    checkpoint is a pure cache — correctness comes from the run digests).
    ``timeout`` bounds each of the group's runs on its own — the prefix
    capture, the baseline continuation and every fork — from its start.
    """
    from ..experiments.world import deadline_after
    from ..replay.checkpoint import Checkpoint, CheckpointError
    from ..replay.signature import SignatureMismatch

    checkpoint = None
    live_world = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        try:
            checkpoint = Checkpoint.load(checkpoint_path)
        except (CheckpointError, SignatureMismatch):
            checkpoint = None
    if checkpoint is None:
        deadline = deadline_after(timeout)
        live_world = build_point_world(scenario, seed, baseline=True, registry=registry)
        checkpoint = Checkpoint.capture_at(live_world, fork_time, deadline=deadline)
        if checkpoint_path is not None:
            # The ``.tmp`` suffix keeps orphans sweepable by ``store prune``.
            target = Path(checkpoint_path)
            temp = target.with_name(target.name + ".%d.tmp" % os.getpid())
            checkpoint.save(temp)
            os.replace(temp, target)
    results: Dict[str, RunMetrics] = {}
    for digest, spec in members:
        if spec is not None:
            continue
        # The prefix continued to the horizon *is* the baseline run.
        deadline = deadline_after(timeout)
        world = live_world if live_world is not None else checkpoint.restore()
        live_world = None  # consumed; a second baseline member would restore
        results[digest] = world.run(deadline=deadline)
    for digest, spec in members:
        if spec is None:
            continue
        deadline = deadline_after(timeout)
        world = checkpoint.fork(
            adversary_spec=spec, registry=registry, align_origin=True
        )
        results[digest] = world.run(deadline=deadline)
    return results


class PointExecutionError(RuntimeError):
    """A scenario run failed (or timed out) after exhausting its retry budget.

    Carries enough context (``label``, ``seed``, ``baseline``, ``attempts``,
    ``cause``) for a campaign manifest to mark the point ``failed`` and for
    the campaign's next run to execute it again.
    """

    def __init__(
        self, label: str, seed: int, baseline: bool, attempts: int, cause: BaseException
    ) -> None:
        self.label = label
        self.seed = seed
        self.baseline = baseline
        self.attempts = attempts
        self.cause = cause
        kind = "baseline" if baseline else "attacked"
        super().__init__(
            "%s run of %r (seed %d) failed after %d attempt(s): %s"
            % (kind, label, seed, attempts, cause)
        )


@dataclass
class _Task:
    """One pending (scenario, seed, attacked-or-baseline) run."""

    digest: str
    scenario: Scenario
    seed: int
    baseline: bool


@dataclass
class _Unit:
    """One piece of work for :meth:`Session._dispatch`: a run task or a fork group.

    ``call()`` runs it in this process; ``remote()`` builds its picklable
    ``(entry point, payload)`` pair for the process pool.  ``task`` is set
    on run-task units: the round publishes their ``run_lifecycle`` events.
    """

    call: Callable[[], object]
    remote: Callable[[], Tuple[Callable[[tuple], object], tuple]]
    task: Optional[_Task] = None


@dataclass
class Session:
    """Executes scenarios, in parallel when ``workers > 1``.

    ``store`` (optional) persists every per-seed run as digest-keyed JSON,
    shared across processes and invocations; a point's result is derived
    from its runs, never stored.
    ``registry`` resolves adversary kinds; a non-default registry forces
    serial execution because worker processes only see the default one.
    ``record=True`` captures every *computed* run (cache misses only) as a
    ``trace-<digest>.jsonl.gz`` replay artifact in the store, which is then
    required; a cached run whose trace artifact exists but is corrupt is
    recomputed (regenerating the trace) so record sessions are self-healing.

    ``timeout`` bounds each run's wall-clock seconds, counted from the
    run's start, serial or pooled alike: the run checks its deadline
    between event slices and raises :class:`TimeoutError` (see
    :meth:`World.advance <repro.experiments.world.World.advance>`).  So a
    run stuck *inside* one event handler is not stopped, on the pool as
    anywhere else — that is a bug, not an overrun.  A failed or timed-out
    run is retried up to ``retries`` times with exponential backoff
    starting at ``retry_backoff`` seconds; a run that still fails surfaces
    as :class:`PointExecutionError` instead of hanging or poisoning the
    whole batch.  A pool process that dies fails the runs of its round
    (charged like any failure), and the next round starts a fresh pool.

    ``telemetry`` (an :class:`~repro.telemetry.bus.EventBus`) publishes
    ``run_lifecycle`` events for every computed run, and — on the serial
    path — attaches the in-simulation taps so poll/admission/damage/window/
    fault events stream live.  Pool runs publish lifecycle events only
    (worker processes cannot reach the parent's bus), and record mode owns
    the tracer tap sites, so recorded runs skip the in-simulation topics
    too.  ``control`` (a :class:`~repro.telemetry.stream.RunControl`)
    gates serial runs for pause/step debugging; whoever holds it drives
    the run.  Neither perturbs results: observed runs are digest-identical
    to unobserved ones.
    """

    workers: int = 1
    store: Optional[ResultStore] = None
    record: bool = False
    timeout: Optional[float] = None
    retries: int = 1
    retry_backoff: float = 0.5
    telemetry: Optional[object] = field(default=None, repr=False)
    control: Optional[object] = field(default=None, repr=False)
    registry: AdversaryRegistry = field(default=DEFAULT_REGISTRY, repr=False)
    _run_cache: Dict[str, RunMetrics] = field(default_factory=dict, repr=False)
    _pool: Optional[concurrent.futures.ProcessPoolExecutor] = field(
        default=None, repr=False
    )
    _pool_finalizer: Optional[weakref.finalize] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # ``Session(store="results.db")`` / ``Session(store="out/")`` pick
        # the SQLite or directory backend by reference, like ``--store``.
        if self.store is not None and not isinstance(self.store, ResultStore):
            from .store import open_store

            self.store = open_store(self.store)

    # -- public API --------------------------------------------------------------------

    def run_metrics(self, scenario: Scenario, baseline: bool = False) -> List[RunMetrics]:
        """Per-seed metrics for one scenario point (attacked by default)."""
        # No adversary, no baseline keys: the baseline runs *are* the attacked runs.
        side = baseline and scenario.adversary is not None
        tasks = [task for task in self._tasks_for(scenario) if task.baseline == side]
        computed, failures = self._compute(tasks)
        self._raise_first(failures)
        return [computed[task.digest] for task in tasks]

    def run(self, scenario: Scenario) -> ExperimentResult:
        """Run one scenario point: attacked and baseline runs, compared.

        For a no-adversary scenario the baseline *is* the attacked run and
        every ratio metric is 1 by construction.
        """
        return self.run_all([scenario])[0]

    def run_all(
        self, scenarios: Sequence[Scenario], on_error: str = "raise"
    ) -> List[object]:
        """Run several point scenarios through one deduplicated task batch.

        All (point, seed) runs — attacked and baseline — are gathered first,
        so the process pool is saturated across the whole batch and shared
        baselines are simulated once.

        With ``on_error="return"`` a scenario whose runs failed contributes
        its :class:`PointExecutionError` to the output list (in place of an
        :class:`ExperimentResult`) instead of aborting the batch — the
        campaign runner uses this to mark points failed and keep going.
        """
        if on_error not in ("raise", "return"):
            raise ValueError("on_error must be 'raise' or 'return'")
        batches = [self._tasks_for(scenario) for scenario in scenarios]
        computed, failures = self._compute(
            [task for tasks in batches for task in tasks]
        )
        if on_error == "raise":
            self._raise_first(failures)
        output: List[object] = []
        for scenario, tasks in zip(scenarios, batches):
            failed = [failures[task.digest] for task in tasks if task.digest in failures]
            if failed:
                output.append(failed[0])
            else:
                keys = [(task.seed, task.baseline, task.digest) for task in tasks]
                output.append(assemble_result(scenario, scenario.digest, keys, computed))
        return output

    def run_fork_groups(self, groups: Sequence[ForkGroup]) -> Dict[str, RunMetrics]:
        """Execute prefix-fork groups, warming the per-run digest cache.

        Each group simulates its shared baseline prefix once (or loads the
        persisted prefix checkpoint from the store) and forks every attack
        suffix from it; all produced runs are cached and persisted exactly
        as full runs would be, so a subsequent :meth:`run` / :meth:`run_all`
        over the same scenarios assembles results without simulating.
        Groups are the parallel unit: with ``workers > 1`` they execute on
        the process pool.  Returns the cached and forked runs keyed by run
        digest.  Forking is a pure cache: a group that fails or times out is
        logged and left to that ordinary path, which then simulates its
        runs in full under the usual retry budget.
        """
        if self.record:
            raise ValueError(
                "record mode captures full-run traces; prefix-forked runs "
                "cannot produce them — disable one of the two"
            )
        results: Dict[str, RunMetrics] = {}
        pending: List[ForkGroup] = []
        for group in groups:
            members = []
            for digest, spec in group.members:
                cached = self._lookup(digest)
                if cached is not None:
                    results[digest] = cached
                else:
                    members.append((digest, spec))
            # With only the baseline run missing, a full run costs the same
            # as the prefix continuation: leave it to the ordinary path
            # rather than capture a checkpoint nothing will fork from.
            if any(spec is not None for _, spec in members):
                pending.append(replace(group, members=members))
        outcomes = self._dispatch([self._fork_unit(group) for group in pending])
        for group, outcome in zip(pending, outcomes):
            if isinstance(outcome, dict):
                for digest, run in outcome.items():
                    results[digest] = run
                    self._remember(digest, run)
            else:
                logger.warning(
                    "fork group %s of %r (seed %d) failed; falling back to "
                    "full runs for its %d member(s)",
                    group.checkpoint_digest[:12],
                    group.scenario.name,
                    group.seed,
                    len(group.members),
                    exc_info=outcome,
                )
        return results

    # -- internals ---------------------------------------------------------------------

    def _tasks_for(self, scenario: Scenario) -> List[_Task]:
        """One task per run the point needs, in ``Scenario.run_keys`` order."""
        return [
            _Task(digest=digest, scenario=scenario, seed=seed, baseline=baseline)
            for seed, baseline, digest in scenario.run_keys()
        ]

    @staticmethod
    def _raise_first(failures: Dict[str, PointExecutionError]) -> None:
        if failures:
            raise next(iter(failures.values()))

    def _compute(
        self, tasks: Sequence[_Task]
    ) -> Tuple[Dict[str, RunMetrics], Dict[str, PointExecutionError]]:
        """Resolve every task digest to metrics, computing only cache misses.

        Returns ``(results, failures)``: tasks that failed after the retry
        budget land in ``failures`` as :class:`PointExecutionError` so callers
        decide whether one bad point aborts or just skips.
        """
        results: Dict[str, RunMetrics] = {}
        failures: Dict[str, PointExecutionError] = {}
        #: Charged attempts per pending digest; doubles as the dedupe set.
        attempts: Dict[str, int] = {}
        queue: List[_Task] = []
        for task in tasks:
            if task.digest in results or task.digest in attempts:
                continue
            cached = self._lookup(task.digest)
            if cached is not None and not self._trace_corrupt(task.digest):
                results[task.digest] = cached
            else:
                attempts[task.digest] = 0
                queue.append(task)

        round_index = 0
        while queue:
            round_index += 1
            outcomes = self._dispatch([self._task_unit(task) for task in queue])
            next_queue: List[_Task] = []
            backoff_due = False
            for task, outcome in zip(queue, outcomes):
                if isinstance(outcome, RunMetrics):
                    results[task.digest] = outcome
                    self._remember(task.digest, outcome)
                else:
                    attempts[task.digest] += 1
                    if attempts[task.digest] <= self.retries:
                        next_queue.append(task)
                        backoff_due = True
                    else:
                        failures[task.digest] = PointExecutionError(
                            task.scenario.name,
                            task.seed,
                            task.baseline,
                            attempts[task.digest],
                            outcome,
                        )
            if backoff_due and next_queue and self.retry_backoff > 0:
                time.sleep(
                    min(30.0, self.retry_backoff * (2 ** (round_index - 1)))
                )
            queue = next_queue
        return results, failures

    def _task_unit(self, task: _Task) -> _Unit:
        """The work unit for one pending run: a full simulation of ``task``."""
        trace_path = str(self._trace_target(task.digest)) if self.record else None
        # Optional kwargs are passed only when set, so plain sessions call
        # execute_point with its classic signature (which tests and
        # instrumentation are free to monkeypatch).
        kwargs: Dict[str, object] = {"baseline": task.baseline, "trace_path": trace_path}
        if self.timeout is not None:
            kwargs["timeout"] = self.timeout

        def call() -> RunMetrics:
            extra = dict(kwargs, registry=self.registry)
            if self.telemetry is not None:
                extra.update(bus=self.telemetry, run_id=task.digest)
            if self.control is not None:
                extra["control"] = self.control
            return execute_point(task.scenario, task.seed, **extra)

        def remote():
            scenario_json = task.scenario.to_json(indent=None)
            return _execute_payload, (execute_point, scenario_json, (task.seed,), kwargs)

        return _Unit(call, remote, task)

    def _fork_unit(self, group: ForkGroup) -> _Unit:
        """The work unit for one fork group: its prefix plus every member suffix."""
        checkpoint_path = (
            str(self.store.checkpoint_path(group.checkpoint_digest))
            if self.store is not None
            else None
        )
        args = (group.seed, group.fork_time, group.members)
        kwargs = {"checkpoint_path": checkpoint_path, "timeout": self.timeout}

        def call() -> object:
            return execute_fork_group(
                group.scenario, *args, registry=self.registry, **kwargs
            )

        def remote():
            scenario_json = group.scenario.to_json(indent=None)
            return _execute_payload, (execute_fork_group, scenario_json, args, kwargs)

        return _Unit(call, remote)

    def _dispatch(self, units: Sequence[_Unit]) -> List[object]:
        """Execute one round of work units; one outcome per unit, in order.

        An outcome is what the unit returned or the exception that stopped
        it — a timed-out run's own :class:`TimeoutError` included;
        KeyboardInterrupt and SystemExit always propagate.  Units run in
        this process, in order, unless the session has workers to spread
        them over.  Pool rounds gather in submission order.  A pool process
        that dies breaks the pool: every unit it had not finished fails with
        the ``BrokenExecutor``, and the session drops the pool so the next
        round spawns a fresh one.
        """
        outcomes: List[object] = []
        pooled = (
            self.workers > 1 and len(units) > 1 and self.registry is DEFAULT_REGISTRY
        )
        if not pooled:
            for unit in units:
                started = time.perf_counter()
                self._publish_run(unit.task)
                try:
                    outcome: object = unit.call()
                except Exception as exc:
                    outcome = exc
                self._publish_run(
                    unit.task, outcome, time.perf_counter() - started, observed=not self.record
                )
                outcomes.append(outcome)
            return outcomes

        pool = self._executor()
        futures = [pool.submit(*unit.remote()) for unit in units]
        for unit in units:
            self._publish_run(unit.task)
        broken: Optional[BaseException] = None
        for unit, future in zip(units, futures):
            try:
                outcome = future.result()
            except concurrent.futures.BrokenExecutor as exc:
                outcome = broken = exc
            except Exception as exc:
                outcome = exc
            # Futures resolve in submission order, so per-run wall time is
            # not observable from the parent: pool events carry no wall_s.
            self._publish_run(unit.task, outcome)
            outcomes.append(outcome)
        if broken is not None:
            logger.warning("a pool process died; respawning the pool: %r", broken)
            self.close()
        return outcomes

    def _publish_run(
        self,
        task: Optional[_Task],
        outcome: object = None,
        wall_s: Optional[float] = None,
        observed: bool = False,
    ) -> None:
        """Publish the ``run_lifecycle`` event for one attempt at a run task.

        No ``outcome`` yet announces ``started``; metrics publish
        ``finished`` and an exception ``failed``.  A unit that is not a run
        task publishes nothing.  ``observed`` marks a finished run whose
        in-simulation events went to the bus too (serial, not recorded).
        """
        bus = self.telemetry
        if bus is None or task is None:
            return
        from ..telemetry.stream import publish_run_event

        state, details = "started", {}
        if isinstance(outcome, RunMetrics):
            state = "finished"
            details = {"events": outcome.extras.get("events_processed"), "observed": observed}
        elif outcome is not None:
            state, details = "failed", {"error": str(outcome)}
        publish_run_event(
            bus,
            state,
            task.digest,
            task.scenario.name,
            task.seed,
            task.baseline,
            wall_s=wall_s,
            **details,
        )

    def _trace_corrupt(self, digest: str) -> bool:
        """True when record mode finds an existing-but-bad trace for ``digest``.

        A *missing* trace does not invalidate a cached run (cached runs are
        never re-recorded); a present-but-corrupt one does — the store
        quarantines it and the recompute regenerates a good trace.
        """
        if not self.record or self.store is None:
            return False
        if not self.store.has_trace(digest):
            return False
        return not self.store.check_trace(digest)

    def _trace_target(self, digest: str):
        if self.store is None:
            raise ValueError("Session(record=True) requires a result store")
        return self.store.trace_path(digest)

    def _lookup(self, digest: str) -> Optional[RunMetrics]:
        run = self._run_cache.get(digest)
        if run is not None:
            return run
        if self.store is not None:
            loaded = self.store.load_runs(digest)
            if loaded:
                self._run_cache[digest] = loaded[0]
                return loaded[0]
        return None

    def _remember(self, digest: str, run: RunMetrics) -> None:
        self._run_cache[digest] = run
        if self.store is not None:
            self.store.save_runs(digest, [run])

    def _executor(self) -> concurrent.futures.ProcessPoolExecutor:
        """The session's process pool, spawned once and reused across batches.

        Re-spawning a pool per ``run_all`` call paid the worker startup cost
        (interpreter + imports) for every scenario batch; a campaign
        streaming dozens of batches through one session now amortizes it.
        Results are gathered in submission order, so pool reuse cannot
        affect determinism.
        """
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
            # A pool that outlives its last batch must still be shut down —
            # at the latest before interpreter teardown, or
            # concurrent.futures' own exit hook trips over half-finalized
            # pipes ("Bad file descriptor" noise on stderr).  A weakref
            # finalizer fires on session garbage collection *or* at exit
            # without keeping the session (and its run cache) alive.
            self._pool_finalizer = weakref.finalize(
                self, concurrent.futures.ProcessPoolExecutor.shutdown, self._pool
            )
        return self._pool

    def close(self) -> None:
        """Shut down the process pool (a later run lazily re-spawns it)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
        self._pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def clear_cache(self) -> None:
        """Drop the in-memory per-seed cache (the store is left untouched)."""
        self._run_cache.clear()


_default_session: Optional[Session] = None


def default_session() -> Session:
    """The process-wide serial session the experiment modules share.

    Sharing one session means every figure sweep in a process reuses the
    same cached baseline runs, mirroring the old module-global baseline
    cache.  The CLI builds its own sessions (with workers and a store) and
    passes them explicitly; this one serves callers that pass none.
    """
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session
