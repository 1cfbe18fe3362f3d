"""Declarative parameter-grid campaigns with resumable execution.

A :class:`Campaign` is the one parameter grid: a base
:class:`~repro.api.scenario.Scenario` plus an ordered list of **axes**, each
axis a mapping of parameter targets to value lists.  A single-target axis is
a plain grid dimension; a multi-target axis advances its targets in lockstep
(a *zip* axis — e.g. pinning a human-readable ``params.poll_interval_months``
label to the ``protocol.poll_interval`` override it describes).  Axes expand
as a cartesian product in declaration order, first axis outermost, so a grid
over coverage then duration varies duration fastest — the paper's figure row
order.  A campaign with no axes is its one scenario.

Targets are ``"protocol.<field>"``, ``"sim.<field>"``,
``"adversary.<param>"``, ``"faults.<path>"``, or ``"params.<label>"`` (a pure
row label with no config effect).  Every expanded point is a concrete point scenario with the
usual **content digest**, so points are persistable, deduplicatable, and
resumable by identity rather than by position.

:class:`CampaignRunner` executes campaigns through a
:class:`~repro.api.session.Session`: every expanded point whose runs all
exist in the attached :class:`~repro.api.store.ResultStore` is complete —
its result is derived from those runs instead of re-simulated — the
remaining points stream through the session's (optionally parallel) task
batch, and per-seed runs are checkpointed as they complete — so a killed
campaign resumes exactly where it stopped and finishes with bit-identical
result digests.  This is the record-and-replay discipline (digest-addressed
recordings, cheap replay) applied to simulation fleets.

Campaigns round-trip through JSON (``save`` / ``load``), which makes every
figure of the paper a small campaign artifact runnable via
``repro-experiments campaign run <campaign.json>`` (a scenario JSON file runs
the same way, as a one-point campaign).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .resultset import PointResult, ResultSet, export_rows
from .scenario import (
    JsonSpec,
    RunKey,
    Scenario,
    canonical_json,
    check_keys,
    expand_axes,
    point_identities,
    split_axis_target,
)
from .session import (
    ExperimentResult,
    ForkGroup,
    PointExecutionError,
    Session,
    assemble_result,
    default_session,
)
from ..metrics.report import RunMetrics
from .store import ResultStore

logger = logging.getLogger(__name__)


def attack_onset(scenario: Scenario) -> float:
    """Earliest simulation time (seconds) the point's adversary can act.

    Walks the canonical composed-adversary schedule from t=0 until the
    first window with positive intensity — the zero-intensity leading
    phases of a piecewise schedule are exactly the idle prefix a fork can
    skip.  Conservatively returns 0.0 whenever the onset cannot be proven
    later (no composed spec, an open-ended schedule, an unregistered
    kind), and the horizon duration when the schedule never engages at
    all.  Fault plans do not constrain the onset: faults are environment,
    part of the baseline prefix itself.
    """
    if scenario.adversary is None:
        return 0.0
    canonical = scenario._canonical_adversary() or {}
    if canonical.get("kind") != "composed":
        return 0.0
    params = canonical.get("params") or {}
    spec = params.get("schedule")
    if not isinstance(spec, dict):
        return 0.0
    from ..adversary.components import SCHEDULE_REGISTRY

    try:
        schedule = SCHEDULE_REGISTRY.build(dict(spec))
    except (KeyError, TypeError, ValueError) as error:
        logger.warning(
            "cannot build the schedule of %r (%s); treating its attack onset "
            "as 0, so the point runs in full instead of forking",
            scenario.name,
            error,
        )
        return 0.0
    if schedule.open_ended:
        return 0.0
    _, sim = scenario.resolve()
    duration = float(sim.duration)
    time = 0.0
    index = 0
    while time < duration:
        window = schedule.window(index)
        if window is None:
            return duration
        if window.intensity > 0:
            return time
        time = min(time + window.duration, duration) + window.gap
        index += 1
    return duration


def fork_onset(scenario: Scenario) -> Optional[float]:
    """The point's attack onset if it can fork from a shared prefix, else None.

    Eligible is an adversary whose first engagement falls strictly inside
    the run: no adversary, a provably-zero (or unprovable) onset, or an
    onset at/after the horizon leave no prefix to skip.
    """
    if scenario.adversary is None:
        return None
    onset = attack_onset(scenario)
    _, sim = scenario.resolve()
    return onset if 0.0 < onset < float(sim.duration) else None


def prefix_key(scenario: Scenario) -> str:
    """Stable identity of a point's baseline prefix across all its seeds.

    Two points share a prefix key exactly when their baseline runs are
    identical — same resolved protocol and sim configs, same fault plan,
    same seeds — i.e. when only suffix axes (``adversary.*``, ``params.*``)
    distinguish them.  The service broker stores this per point so its
    lease ordering can keep one worker on one prefix group, maximizing
    checkpoint reuse.
    """
    # Without an adversary the attacked runs *are* the baseline runs.
    side = scenario.adversary is not None
    prefixes = [
        digest for _, baseline, digest in scenario.run_keys() if baseline == side
    ]
    return hashlib.sha256(
        canonical_json({"prefixes": prefixes}).encode("utf-8")
    ).hexdigest()


def plan_fork_groups(
    points: Sequence[CampaignPoint],
) -> List[ForkGroup]:
    """Partition campaign points into shared-prefix fork groups.

    Two (point, seed) runs share a group exactly when they share the
    baseline point digest — i.e. when only suffix axes (``adversary.*``,
    ``params.*``) distinguish them; any axis that touches the prefix
    (``protocol.*``, ``sim.*``, ``faults.*``) changes the baseline digest
    and therefore the group.  A group's fork time is the *earliest* attack
    onset among its members, so the one checkpoint serves them all.

    Points that cannot be forked (see :func:`fork_onset`) fall back to full
    runs by simply not appearing in any group.  A prefix with fewer than two
    attacked members is dropped too — a checkpoint only one suffix would
    fork from saves less than it costs to persist, and keeping single
    points on the ordinary path preserves the "prefix-touching axes run
    in full" contract.
    """
    buckets: Dict[tuple, Dict[str, object]] = {}
    for point in points:
        scenario = point.scenario
        onset = fork_onset(scenario)
        if onset is None:
            continue
        spec = scenario.adversary.to_dict()
        prefixes = {seed: digest for seed, baseline, digest in point.run_keys if baseline}
        for seed, baseline, attacked in point.run_keys:
            if baseline:
                continue
            bucket = buckets.setdefault(
                (seed, prefixes[seed]),
                {
                    "scenario": scenario,
                    "fork_time": onset,
                    "attacked": {},
                },
            )
            bucket["fork_time"] = min(bucket["fork_time"], onset)
            bucket["attacked"].setdefault(attacked, spec)
    groups: List[ForkGroup] = []
    for (seed, prefix), bucket in buckets.items():
        attacked: Dict[str, Dict[str, object]] = bucket["attacked"]
        if len(attacked) < 2:
            continue
        fork_time = float(bucket["fork_time"])
        checkpoint_digest = hashlib.sha256(
            canonical_json(
                {
                    "format": "prefix-checkpoint",
                    "prefix": prefix,
                    "fork_time": fork_time,
                }
            ).encode("utf-8")
        ).hexdigest()
        members: List[tuple] = [(prefix, None)]
        members.extend(attacked.items())
        groups.append(
            ForkGroup(
                scenario=bucket["scenario"],
                seed=seed,
                fork_time=fork_time,
                checkpoint_digest=checkpoint_digest,
                members=members,
            )
        )
    return groups


def slice_fork_groups(
    groups: Sequence[ForkGroup], scenarios: Sequence[Scenario]
) -> List[ForkGroup]:
    """``groups`` with members restricted to the runs ``scenarios`` need.

    Groups (and each group's fork time) are planned over the *whole*
    campaign, so a resumed campaign and every worker of a fleet compute the
    identical checkpoint digests and reuse the persisted prefix checkpoints
    instead of re-simulating them; this narrows them to one call's pending
    points, or to one worker's leased point, dropping groups none of them
    is in.
    """
    needed = {
        digest for scenario in scenarios for _, _, digest in scenario.run_keys()
    }
    sliced = []
    for group in groups:
        members = [member for member in group.members if member[0] in needed]
        if members:
            sliced.append(replace(group, members=members))
    return sliced


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: its position, concrete scenario, and the
    scenario's digest and run keys, worked out once by ``expand()`` — a
    point's scenario is not mutated afterwards."""

    index: int
    scenario: Scenario
    digest: str
    run_keys: List[RunKey]

    @property
    def label(self) -> str:
        return self.scenario.name

    @property
    def parameters(self) -> Dict[str, object]:
        return self.scenario.parameters


@dataclass
class Campaign(JsonSpec):
    """A named parameter grid expanded over a base scenario."""

    name: str
    scenario: Scenario
    #: Ordered axes; each axis maps targets to equal-length value lists.  A
    #: one-target axis is a grid dimension, a multi-target axis zips.
    axes: List[Dict[str, List[object]]] = field(default_factory=list)
    #: Row-exporter name used by reports (see :mod:`repro.api.resultset`).
    exporter: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.scenario, dict):
            self.scenario = Scenario.from_dict(self.scenario)
        self.axes = [
            {str(target): list(values) for target, values in axis.items()}
            for axis in self.axes
        ]
        for axis in self.axes:
            self._validate_axis(axis)

    @staticmethod
    def _validate_axis(axis: Mapping[str, Sequence[object]]) -> None:
        if not axis:
            raise ValueError("campaign axis must have at least one target")
        lengths = set()
        for target, values in axis.items():
            split_axis_target(target)
            if not values:
                raise ValueError("campaign axis target %r has no values" % target)
            lengths.add(len(values))
        if len(lengths) > 1:
            raise ValueError(
                "zip axis targets must have equal-length value lists "
                "(got lengths %s)" % sorted(lengths)
            )

    # -- construction ------------------------------------------------------------------

    @classmethod
    def from_grid(
        cls,
        name: str,
        scenario: Scenario,
        grid: Mapping[str, Sequence[object]],
        exporter: Optional[str] = None,
        description: str = "",
    ) -> "Campaign":
        """One axis per grid entry, in insertion order (first outermost)."""
        return cls(
            name=name,
            scenario=scenario,
            axes=[{target: list(values)} for target, values in grid.items()],
            exporter=exporter,
            description=description,
        )

    def add_axis(self, **targets: Sequence[object]) -> "Campaign":
        """Append one axis (zip axis when several targets are given)."""
        axis = {target: list(values) for target, values in targets.items()}
        self._validate_axis(axis)
        self.axes.append(axis)
        return self

    # -- expansion ---------------------------------------------------------------------

    def expand(self) -> List[CampaignPoint]:
        """Expand all axes into concrete point scenarios, first axis outermost."""
        for axis in self.axes:
            self._validate_axis(axis)
        scenarios = expand_axes(self.scenario, self.axes)
        return [
            CampaignPoint(index, scenario, digest, run_keys)
            for index, (scenario, (digest, run_keys)) in enumerate(
                zip(scenarios, point_identities(scenarios))
            )
        ]

    def __len__(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(next(iter(axis.values())))
        return size

    # -- identity ----------------------------------------------------------------------

    @staticmethod
    def digest_of(points: Sequence[CampaignPoint]) -> str:
        """The campaign digest of an already-expanded point list."""
        payload = {"points": [point.digest for point in points]}
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    @property
    def digest(self) -> str:
        """Content digest over the expanded point digests (order included).

        Two differently-spelled campaigns (grid vs zip axes) that expand to the same points in the same order hash identically.
        (Callers that already hold the expansion should prefer
        :meth:`digest_of` — this property re-expands the grid.)
        """
        return self.digest_of(self.expand())

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "exporter": self.exporter,
            "scenario": self.scenario.to_dict(),
            "axes": [
                {target: list(values) for target, values in axis.items()}
                for axis in self.axes
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Campaign":
        check_keys(payload, cls)
        return cls(
            name=str(payload.get("name", "campaign")),
            scenario=Scenario.from_dict(payload["scenario"]),
            axes=[dict(axis) for axis in payload.get("axes") or []],
            exporter=payload.get("exporter"),
            description=str(payload.get("description") or ""),
        )


def status_dict(
    name: str,
    digest: str,
    total: int,
    counts: Mapping[str, int],
    points: Optional[Sequence[Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """The machine-readable campaign status payload.

    One schema serves both producers: ``campaign status --json`` (built
    from :class:`CampaignStatus`, where every point is ``complete`` /
    ``failed`` / ``pending``) and the execution service's status endpoint
    (where a live fleet adds the ``leased`` state).  ``counts`` maps state
    names to point counts; zero counts are kept so consumers can index
    unconditionally.
    """
    counts = {state: int(count) for state, count in counts.items()}
    payload: Dict[str, object] = {
        "name": name,
        "digest": digest,
        "total": int(total),
        "counts": counts,
        "complete": counts.get("complete", 0) >= int(total),
    }
    if points is not None:
        payload["points"] = list(points)
    return payload


def point_entry(
    index: int,
    digest: str,
    label: str,
    state: str,
    error: Optional[str] = None,
    **extra: object,
) -> Dict[str, object]:
    """One point's entry in a status payload or a stored manifest.

    Owns the key set: the four fields, any producer-specific ``extra`` that
    is not None (the broker's ``attempts`` / ``worker`` / ``lease_expires``),
    and ``error`` iff a non-empty one was passed.
    """
    entry: Dict[str, object] = {
        "index": index,
        "digest": digest,
        "label": label,
        "state": state,
    }
    entry.update((key, value) for key, value in extra.items() if value is not None)
    if error:
        entry["error"] = error
    return entry


def manifest_payload(
    name: str, exporter: Optional[str], total: int, entries: Sequence[Mapping]
) -> Dict[str, object]:
    """The store's ``campaign`` artifact, from :func:`point_entry` entries.

    One schema for :class:`CampaignRunner` and the service broker, and the
    one owner of what is persisted: every point's identity, and ``failed``
    with its error for a point whose last attempt failed.  The rest is
    derived on read — ``complete`` iff the store holds the point's runs.
    """
    points = []
    for entry in entries:
        kept = {key: entry[key] for key in ("index", "digest", "label")}
        if entry["state"] == "failed":
            kept.update(state="failed", error=entry.get("error", ""))
        points.append(kept)
    return {"name": name, "exporter": exporter, "total": total, "points": points}


def _store_entries(
    points: Sequence[CampaignPoint], done, failed: Mapping[int, str]
) -> List[Dict[str, object]]:
    """Entries of points whose state the store decides: ``complete`` when the
    index is in ``done``, else ``failed`` (with its error), else ``pending``."""
    entries = []
    for point in points:
        if point.index in done:
            state = "complete"
        elif point.index in failed:
            state = "failed"
        else:
            state = "pending"
        error = failed[point.index] if state == "failed" else None
        entries.append(point_entry(point.index, point.digest, point.label, state, error))
    return entries


def _state_counts(entries: Sequence[Mapping]) -> Dict[str, int]:
    counts = {"complete": 0, "failed": 0, "pending": 0}
    for entry in entries:
        counts[entry["state"]] += 1
    return counts


@dataclass
class CampaignStatus:
    """Completion state of one campaign against a result store."""

    name: str
    digest: str
    total: int
    completed: List[CampaignPoint]
    pending: List[CampaignPoint]
    #: Errors of points the manifest marks ``failed``, keyed by point index.
    #: Failed points stay in ``pending`` too — they are still runnable work
    #: (the next ``run`` re-executes them) — so this only refines their state.
    failed: Dict[int, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.pending

    def to_dict(self) -> Dict[str, object]:
        """The ``campaign status --json`` payload (see :func:`status_dict`)."""
        entries = _store_entries(
            sorted(self.completed + self.pending, key=lambda p: p.index),
            {point.index for point in self.completed},
            self.failed,
        )
        return status_dict(
            self.name, self.digest, self.total, _state_counts(entries), entries
        )


class CampaignRunner:
    """Executes campaigns through a session, checkpointing into its store.

    With a store attached, every per-seed run is persisted by content digest
    as it finishes; ``run`` first derives whatever results the stored runs
    make, so re-running (or resuming after a kill) only simulates the
    missing work and reproduces the exact digests an uninterrupted run would
    have produced.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        record: bool = False,
        fork_prefixes: bool = False,
    ):
        if session is None:
            session = Session(workers=workers, store=store, record=record)
        else:
            if store is not None and session.store is None:
                session.store = store
            if record:
                session.record = True
        self.session = session
        self.fork_prefixes = bool(fork_prefixes)
        #: Errors of the points whose last attempt failed, keyed by point
        #: index, as the latest :meth:`run` left them — the manifest's
        #: ``failed`` set, kept even when no store holds a manifest.
        self.failed: Dict[int, str] = {}
        if self.fork_prefixes and self.session.record:
            raise ValueError(
                "record mode captures full-run traces; prefix-forked runs "
                "cannot produce them — drop record or fork_prefixes"
            )

    @property
    def store(self) -> Optional[ResultStore]:
        return self.session.store

    # -- state inspection ---------------------------------------------------------------

    def _load_point(
        self, point: CampaignPoint, baselines: Dict[str, RunMetrics]
    ) -> Optional[ExperimentResult]:
        """The point's result, derived from its stored runs; ``None`` while one
        is missing or corrupt.  ``baselines`` keeps the baseline runs the
        caller has read, so a baseline a grid shares is read once per call."""
        if self.store is None:
            return None
        runs: Dict[str, RunMetrics] = {}
        for _, baseline, digest in point.run_keys:
            run = baselines.get(digest)
            if run is None:
                stored = self.store.load_runs(digest)
                if not stored:
                    return None
                run = stored[0]
                if baseline:
                    baselines[digest] = run
            runs[digest] = run
        return assemble_result(point.scenario, point.digest, point.run_keys, runs)

    def _stored_failures(self, digest: str, done) -> Optional[Dict[int, str]]:
        """Errors of the points the stored manifest of campaign ``digest``
        marks ``failed`` and ``done`` does not hold, keyed by point index;
        ``None`` when the store has no manifest for the campaign."""
        manifest = (
            self.store.load_json("campaign", digest) if self.store is not None else None
        )
        if not isinstance(manifest, dict):
            return None
        failed: Dict[int, str] = {}
        for entry in manifest.get("points") or []:
            try:
                index = int(entry.get("index"))
            except (TypeError, ValueError):
                continue
            if entry.get("state") == "failed" and index not in done:
                failed[index] = str(entry.get("error") or "")
        return failed

    def status(self, campaign: Campaign) -> CampaignStatus:
        """Which points are already complete in the store, which are pending.

        Points the stored manifest marks ``failed`` are reported with their
        errors (they remain in ``pending`` — still-runnable work).
        """
        points = campaign.expand()
        digest = Campaign.digest_of(points)
        baselines: Dict[str, RunMetrics] = {}
        completed = [p for p in points if self._load_point(p, baselines) is not None]
        done = {point.index for point in completed}
        return CampaignStatus(
            name=campaign.name,
            digest=digest,
            total=len(points),
            completed=completed,
            pending=[point for point in points if point.index not in done],
            failed=self._stored_failures(digest, done) or {},
        )

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        campaign: Campaign,
        max_points: Optional[int] = None,
    ) -> ResultSet:
        """Run the campaign (resuming from the store) and return its results.

        ``max_points`` caps how many *pending* points are executed this call
        — the deterministic stand-in for a mid-campaign kill, used by the
        resume tests and the CI smoke job.  The returned :class:`ResultSet`
        holds the completed points in expansion order; check
        :meth:`status` for completeness and :attr:`failed` for the points
        that failed.

        Points are dispatched in worker-sized chunks and every run is in
        the store once it finishes, so an interactive Ctrl-C and a
        hard kill leave a store that the next ``run`` continues exactly like
        ``--max-points``.  A point whose runs fail or time out past the
        session's retry budget is marked ``failed`` in the manifest — with
        its error — so it does not poison the
        pool and the next ``run`` re-executes it; the manifest is
        written when the store has none and when that marking changes.
        """
        points = campaign.expand()
        results: Dict[int, ExperimentResult] = {}
        pending: List[CampaignPoint] = []
        baselines: Dict[str, RunMetrics] = {}
        for point in points:
            loaded = self._load_point(point, baselines)
            if loaded is not None:
                results[point.index] = loaded
            else:
                pending.append(point)

        to_run = pending if max_points is None else pending[:max_points]
        chunk_size = max(1, self.session.workers)
        digest = Campaign.digest_of(points)
        failed = self._stored_failures(digest, results)
        if failed is None:
            failed = {}
            self._write_manifest(campaign, digest, points, results, failed)
        self._publish_progress(campaign, digest, points, results, failed)
        if self.fork_prefixes and to_run:
            # The forked runs land in the session cache/store, so the
            # ordinary pass below assembles results without simulating —
            # and simulates in full whatever a failed group did not produce.
            self.session.run_fork_groups(
                slice_fork_groups(
                    plan_fork_groups(points), [point.scenario for point in to_run]
                )
            )
        for start in range(0, len(to_run), chunk_size):
            chunk = to_run[start : start + chunk_size]
            executed = self.session.run_all(
                [point.scenario for point in chunk], on_error="return"
            )
            recorded = dict(failed)
            for point, result in zip(chunk, executed):
                if isinstance(result, PointExecutionError):
                    failed[point.index] = str(result)
                    logger.warning(
                        "campaign %s: point #%d (%s) failed: %s",
                        digest,
                        point.index,
                        point.digest,
                        result,
                    )
                else:
                    results[point.index] = result
                    failed.pop(point.index, None)
            if failed != recorded:
                self._write_manifest(campaign, digest, points, results, failed)
            self._publish_progress(campaign, digest, points, results, failed)

        self.failed = failed
        return ResultSet(
            [
                PointResult(point, results[point.index])
                for point in points
                if point.index in results
            ]
        )

    def _publish_progress(
        self,
        campaign: Campaign,
        digest: str,
        points: Sequence[CampaignPoint],
        results: Mapping[int, ExperimentResult],
        failed: Mapping[int, str],
    ) -> None:
        """Publish a ``campaign_progress`` event on the session's bus, if any."""
        bus = self.session.telemetry
        if bus is None:
            return
        from ..telemetry.stream import publish_campaign_progress

        counts = _state_counts(_store_entries(points, results, failed))
        publish_campaign_progress(
            bus, status_dict(campaign.name, digest, len(points), counts)
        )

    def iter_results(self, campaign: Campaign) -> "Iterator[PointResult]":
        """Stream the campaign's stored results one point at a time.

        Each point's result is loaded from the store only when the consumer
        reaches it, so aggregating a large campaign never holds more than
        one :class:`~repro.api.session.ExperimentResult` in memory.  Raises
        ``LookupError`` at the first missing point.
        """
        baselines: Dict[str, RunMetrics] = {}
        for point in campaign.expand():
            result = self._load_point(point, baselines)
            if result is None:
                raise LookupError(
                    "campaign %r is incomplete: point #%d (%s) is missing "
                    "from the store — run it first"
                    % (campaign.name, point.index, point.digest[:12])
                )
            yield PointResult(point, result)

    def result_set(self, campaign: Campaign, lazy: bool = False) -> ResultSet:
        """Load the campaign's results from the store without simulating.

        Raises ``LookupError`` if any point is missing — run it first.
        With ``lazy=True`` the returned set streams results via
        :meth:`iter_results` (missing points then surface during iteration
        rather than up front).
        """
        if lazy:
            return ResultSet.lazy(
                lambda: self.iter_results(campaign), count=len(campaign)
            )
        points = campaign.expand()
        loaded: List[PointResult] = []
        missing: List[CampaignPoint] = []
        baselines: Dict[str, RunMetrics] = {}
        for point in points:
            result = self._load_point(point, baselines)
            if result is None:
                missing.append(point)
            else:
                loaded.append(PointResult(point, result))
        if missing:
            raise LookupError(
                "campaign %r is incomplete: %d/%d points missing from the "
                "store (first missing: #%d %s)"
                % (
                    campaign.name,
                    len(missing),
                    len(points),
                    missing[0].index,
                    missing[0].digest[:12],
                )
            )
        return ResultSet(loaded)

    def rows(self, campaign: Campaign) -> List[Dict[str, object]]:
        """The campaign's exported figure rows, streamed from the store.

        The lazy result set means the generic exporter path loads one
        point result at a time — a ``campaign report`` against a large
        SQLite store never materializes every result at once.
        """
        return export_rows(campaign.exporter, self.result_set(campaign, lazy=True))

    # -- manifest ----------------------------------------------------------------------

    def _write_manifest(
        self,
        campaign: Campaign,
        digest: str,
        points: Sequence[CampaignPoint],
        results: Mapping[int, ExperimentResult],
        failed: Mapping[int, str],
    ) -> None:
        """Persist the campaign's manifest (:func:`manifest_payload`'s schema)
        next to the results: the points' identities and current failures."""
        if self.store is None:
            return
        self.store.save_json(
            "campaign",
            digest,
            manifest_payload(
                campaign.name,
                campaign.exporter,
                len(points),
                _store_entries(points, results, failed),
            ),
        )


def run_campaign(
    campaign: Campaign,
    session: Optional[Session] = None,
    max_points: Optional[int] = None,
    fork_prefixes: bool = False,
) -> ResultSet:
    """Run ``campaign`` through ``session`` (default: the shared session)."""
    runner = CampaignRunner(
        session if session is not None else default_session(),
        fork_prefixes=fork_prefixes,
    )
    return runner.run(campaign, max_points=max_points)


def campaign_rows(
    campaign: Campaign, session: Optional[Session] = None
) -> List[Dict[str, object]]:
    """Run ``campaign`` and export its rows via the campaign's exporter."""
    return export_rows(campaign.exporter, run_campaign(campaign, session=session))
