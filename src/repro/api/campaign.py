"""Declarative parameter-grid campaigns with resumable execution.

A :class:`Campaign` is the multi-point counterpart of a
:class:`~repro.api.scenario.Scenario`: a base scenario plus an ordered list
of **axes**, each axis a mapping of parameter targets to value lists.  A
single-target axis is a plain grid dimension; a multi-target axis advances
its targets in lockstep (a *zip* axis — e.g. pinning a human-readable
``params.poll_interval_months`` label to the ``protocol.poll_interval``
override it describes).  Axes expand as a cartesian product in declaration
order, first axis outermost, mirroring ``Scenario.expand``.

Targets are ``"protocol.<field>"``, ``"sim.<field>"``,
``"adversary.<param>"``, or ``"params.<label>"`` (a pure row label with no
config effect).  Every expanded point is a concrete point scenario with the
usual **content digest**, so points are persistable, deduplicatable, and
resumable by identity rather than by position.

:class:`CampaignRunner` executes campaigns through a
:class:`~repro.api.session.Session`: every expanded point whose result
artifact already exists in the attached
:class:`~repro.api.store.ResultStore` is loaded instead of re-simulated, the
remaining points stream through the session's (optionally parallel) task
batch, and per-seed runs are checkpointed as they complete — so a killed
campaign resumes exactly where it stopped and finishes with bit-identical
result digests.  This is the record-and-replay discipline (digest-addressed
recordings, cheap replay) applied to simulation fleets.

Campaigns round-trip through JSON (``save`` / ``load``), which makes every
figure of the paper a small campaign artifact runnable via
``repro-experiments campaign run <campaign.json>``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from .resultset import PointResult, ResultSet, export_rows
from .scenario import (
    AXIS_SCOPES,
    Scenario,
    apply_axis_value,
    canonical_json,
    clone_point_scenario,
    split_axis_target,
)
from .session import (
    ExperimentResult,
    ForkGroup,
    PointExecutionError,
    Session,
    default_session,
)
from .store import ResultStore


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
    except Exception:
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


def prefix_key(scenario: Scenario) -> str:
    """Stable identity of a point's baseline prefix across all its seeds.

    Two points share a prefix key exactly when their baseline runs are
    identical — same resolved protocol and sim configs, same fault plan,
    same seeds — i.e. when only suffix axes (``adversary.*``, ``params.*``)
    distinguish them.  The service broker stores this per point so its
    lease ordering can keep one worker on one prefix group, maximizing
    checkpoint reuse.
    """
    prefixes = [
        scenario.point_digest(seed, baseline=True) for seed in scenario.seeds
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

    Points that cannot be forked fall back to full runs by simply not
    appearing in any group: no adversary, a provably-zero (or unprovable)
    onset, or an onset at/after the horizon.  A prefix with fewer than two
    attacked members is dropped too — a checkpoint only one suffix would
    fork from saves less than it costs to persist, and keeping single
    points on the ordinary path preserves the "prefix-touching axes run
    in full" contract.
    """
    buckets: Dict[tuple, Dict[str, object]] = {}
    for point in points:
        scenario = point.scenario
        if scenario.adversary is None:
            continue
        onset = attack_onset(scenario)
        _, sim = scenario.resolve()
        if not 0.0 < onset < float(sim.duration):
            continue
        spec = scenario.adversary.to_dict()
        for seed in scenario.seeds:
            prefix = scenario.point_digest(seed, baseline=True)
            bucket = buckets.setdefault(
                (seed, prefix),
                {
                    "scenario": scenario,
                    "seed": seed,
                    "prefix": prefix,
                    "fork_time": onset,
                    "attacked": {},
                },
            )
            bucket["fork_time"] = min(bucket["fork_time"], onset)
            bucket["attacked"].setdefault(
                scenario.point_digest(seed, baseline=False), spec
            )
    groups: List[ForkGroup] = []
    for bucket in buckets.values():
        attacked: Dict[str, Dict[str, object]] = bucket["attacked"]
        if len(attacked) < 2:
            continue
        fork_time = float(bucket["fork_time"])
        checkpoint_digest = hashlib.sha256(
            canonical_json(
                {
                    "format": "prefix-checkpoint",
                    "prefix": bucket["prefix"],
                    "fork_time": fork_time,
                }
            ).encode("utf-8")
        ).hexdigest()
        members: List[tuple] = [(bucket["prefix"], None)]
        members.extend(attacked.items())
        groups.append(
            ForkGroup(
                scenario=bucket["scenario"],
                seed=bucket["seed"],
                fork_time=fork_time,
                checkpoint_digest=checkpoint_digest,
                members=members,
            )
        )
    return groups


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: its position and concrete scenario."""

    index: int
    scenario: Scenario

    @property
    def digest(self) -> str:
        return self.scenario.digest

    @property
    def label(self) -> str:
        return self.scenario.name

    @property
    def parameters(self) -> Dict[str, object]:
        return self.scenario.parameters


@dataclass
class Campaign:
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
        if self.scenario.is_sweep:
            raise ValueError(
                "campaign base scenario must be a point scenario; convert "
                "sweep axes with Campaign.from_sweep()"
            )
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
            split_axis_target(target, AXIS_SCOPES)
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

    @classmethod
    def from_sweep(
        cls,
        scenario: Scenario,
        name: Optional[str] = None,
        exporter: Optional[str] = None,
        description: str = "",
    ) -> "Campaign":
        """Convert a sweep scenario into the equivalent campaign.

        Each sweep axis becomes one grid axis in the same order, so the
        expanded points (and their digests) match ``Scenario.expand()``.
        """
        base = clone_point_scenario(scenario)
        return cls(
            name=name if name is not None else scenario.name,
            scenario=base,
            axes=[
                {axis: list(values)} for axis, values in scenario.sweep.items()
            ],
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
        points: List[Scenario] = [clone_point_scenario(self.scenario)]
        for axis in self.axes:
            self._validate_axis(axis)
            width = len(next(iter(axis.values())))
            expanded: List[Scenario] = []
            for point in points:
                for position in range(width):
                    child = clone_point_scenario(point)
                    for target, values in axis.items():
                        apply_axis_value(child, target, values[position])
                    expanded.append(child)
            points = expanded
        return [
            CampaignPoint(index=index, scenario=scenario)
            for index, scenario in enumerate(points)
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

        Two differently-spelled campaigns (grid vs zip vs converted sweep)
        that expand to the same points in the same order hash identically.
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
        return cls(
            name=str(payload.get("name", "campaign")),
            scenario=Scenario.from_dict(payload["scenario"]),
            axes=[dict(axis) for axis in payload.get("axes") or []],
            exporter=payload.get("exporter"),
            description=str(payload.get("description") or ""),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Campaign":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


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
    #: (``resume`` re-executes them) — so this only refines their state.
    failed: Dict[int, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.pending

    def summary(self) -> str:
        line = "%s: %d/%d points complete (campaign digest %s)" % (
            self.name,
            len(self.completed),
            self.total,
            self.digest[:12],
        )
        if self.failed:
            line += ", %d failed" % len(self.failed)
        return line

    def to_dict(self) -> Dict[str, object]:
        """The ``campaign status --json`` payload (see :func:`status_dict`)."""
        entries: List[Dict[str, object]] = []
        counts = {"complete": 0, "failed": 0, "pending": 0}
        points = sorted(self.completed + self.pending, key=lambda p: p.index)
        done = {point.index for point in self.completed}
        for point in points:
            if point.index in done:
                state = "complete"
            elif point.index in self.failed:
                state = "failed"
            else:
                state = "pending"
            counts[state] += 1
            entry: Dict[str, object] = {
                "index": point.index,
                "digest": point.digest,
                "label": point.label,
                "state": state,
            }
            if state == "failed" and self.failed[point.index]:
                entry["error"] = self.failed[point.index]
            entries.append(entry)
        return status_dict(self.name, self.digest, self.total, counts, entries)


class CampaignRunner:
    """Executes campaigns through a session, checkpointing into its store.

    With a store attached, every per-seed run and every completed point
    result is persisted by content digest as it finishes; ``run`` first
    loads whatever the store already holds, so re-running (or resuming after
    a kill) only simulates the missing work and reproduces the exact digests
    an uninterrupted run would have produced.
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
        if self.fork_prefixes and self.session.record:
            raise ValueError(
                "record mode captures full-run traces; prefix-forked runs "
                "cannot produce them — drop record or fork_prefixes"
            )

    @property
    def store(self) -> Optional[ResultStore]:
        return self.session.store

    # -- state inspection ---------------------------------------------------------------

    def _load_point(self, point: CampaignPoint) -> Optional[ExperimentResult]:
        if self.store is None:
            return None
        payload = self.store.load_json("result", point.digest)
        if not isinstance(payload, dict):
            return None
        try:
            return ExperimentResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def status(self, campaign: Campaign) -> CampaignStatus:
        """Which points are already complete in the store, which are pending.

        Points the stored manifest marks ``failed`` are reported with their
        errors (they remain in ``pending`` — still-runnable work).
        """
        points = campaign.expand()
        digest = Campaign.digest_of(points)
        completed = [point for point in points if self._load_point(point) is not None]
        done = {point.index for point in completed}
        failed: Dict[int, str] = {}
        manifest = (
            self.store.load_json("campaign", digest) if self.store is not None else None
        )
        if isinstance(manifest, dict):
            for entry in manifest.get("points") or []:
                try:
                    index = int(entry.get("index"))
                except (TypeError, ValueError):
                    continue
                if entry.get("state") == "failed" and index not in done:
                    failed[index] = str(entry.get("error") or "")
        return CampaignStatus(
            name=campaign.name,
            digest=digest,
            total=len(points),
            completed=completed,
            pending=[point for point in points if point.index not in done],
            failed=failed,
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
        :meth:`status` for completeness.

        Points are dispatched in worker-sized chunks with the manifest
        rewritten after each, so both an interactive Ctrl-C (which flushes
        the manifest before re-raising) and a hard kill leave a store that
        :meth:`resume` continues exactly like ``--max-points``.  A point
        whose runs fail or time out past the session's retry budget is
        marked ``failed`` in the manifest — with its error, without a
        result artifact — so it does not poison the pool and ``resume``
        re-leases it automatically.
        """
        points = campaign.expand()
        results: Dict[int, ExperimentResult] = {}
        failed: Dict[int, str] = {}
        pending: List[CampaignPoint] = []
        for point in points:
            loaded = self._load_point(point)
            if loaded is not None:
                results[point.index] = loaded
            else:
                pending.append(point)

        to_run = pending if max_points is None else pending[:max_points]
        chunk_size = max(1, self.session.workers)
        digest = Campaign.digest_of(points)
        self._publish_progress(campaign, digest, points, results, failed)
        try:
            if self.fork_prefixes and to_run:
                self._run_fork_prefixes(points, to_run)
            for start in range(0, len(to_run), chunk_size):
                chunk = to_run[start : start + chunk_size]
                executed = self.session.run_all(
                    [point.scenario for point in chunk], on_error="return"
                )
                for point, result in zip(chunk, executed):
                    if isinstance(result, PointExecutionError):
                        failed[point.index] = str(result)
                    else:
                        results[point.index] = result
                self._write_manifest(campaign, points, results, failed)
                self._publish_progress(campaign, digest, points, results, failed)
        except KeyboardInterrupt:
            # Flush per-point state before propagating: whatever completed
            # is already checkpointed in the store, and the manifest now
            # reflects it, so the interrupted campaign resumes cleanly.
            self._write_manifest(campaign, points, results, failed)
            raise
        self._write_manifest(campaign, points, results, failed)

        return ResultSet(
            [
                PointResult(point.index, point.scenario, results[point.index])
                for point in points
                if point.index in results
            ]
        )

    def resume(self, campaign: Campaign) -> ResultSet:
        """Finish whatever ``run`` (or a killed invocation) left pending."""
        return self.run(campaign)

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

        complete = len(results)
        failures = sum(1 for index in failed if index not in results)
        counts = {
            "complete": complete,
            "failed": failures,
            "pending": max(0, len(points) - complete - failures),
        }
        publish_campaign_progress(
            bus, status_dict(campaign.name, digest, len(points), counts)
        )

    # -- prefix forking ----------------------------------------------------------------

    def _run_fork_prefixes(
        self,
        points: Sequence[CampaignPoint],
        to_run: Sequence[CampaignPoint],
    ) -> None:
        """Execute the fork groups covering this call's pending points.

        Groups (and each group's fork time) are planned over the *whole*
        campaign, not just the pending slice, so an interrupted campaign
        resumed later computes the identical checkpoint digests and reuses
        the persisted prefix checkpoints instead of re-simulating them;
        members are then restricted to the runs this call actually needs.
        Completed runs land in the session cache/store, so the subsequent
        ordinary execution pass assembles results without simulating — and
        simulates in full whatever a failed group did not produce.
        """
        needed = set()
        for point in to_run:
            scenario = point.scenario
            for seed in scenario.seeds:
                needed.add(scenario.point_digest(seed, baseline=False))
                if scenario.adversary is not None:
                    needed.add(scenario.point_digest(seed, baseline=True))
        self.session.run_fork_groups(
            [
                replace(
                    group,
                    members=[member for member in group.members if member[0] in needed],
                )
                for group in plan_fork_groups(points)
            ]
        )

    def iter_results(self, campaign: Campaign) -> "Iterator[PointResult]":
        """Stream the campaign's stored results one point at a time.

        Each point's result is loaded from the store only when the consumer
        reaches it, so aggregating a large campaign never holds more than
        one :class:`~repro.api.session.ExperimentResult` in memory.  Raises
        ``LookupError`` at the first missing point.
        """
        for point in campaign.expand():
            result = self._load_point(point)
            if result is None:
                raise LookupError(
                    "campaign %r is incomplete: point #%d (%s) is missing "
                    "from the store — run or resume it first"
                    % (campaign.name, point.index, point.digest[:12])
                )
            yield PointResult(point.index, point.scenario, result)

    def result_set(self, campaign: Campaign, lazy: bool = False) -> ResultSet:
        """Load the campaign's results from the store without simulating.

        Raises ``LookupError`` if any point is missing — run or resume
        first.  With ``lazy=True`` the returned set streams results via
        :meth:`iter_results` (missing points then surface during
        iteration rather than up front).
        """
        if lazy:
            return ResultSet.lazy(
                lambda: self.iter_results(campaign), count=len(campaign)
            )
        points = campaign.expand()
        loaded: List[PointResult] = []
        missing: List[CampaignPoint] = []
        for point in points:
            result = self._load_point(point)
            if result is None:
                missing.append(point)
            else:
                loaded.append(PointResult(point.index, point.scenario, result))
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
        points: Sequence[CampaignPoint],
        results: Mapping[int, ExperimentResult],
        failed: Optional[Mapping[int, str]] = None,
    ) -> None:
        """Persist a human-readable completion manifest next to the results.

        Each point carries a ``state`` (``complete`` / ``failed`` /
        ``pending``, with failures keeping their error string) plus the
        older boolean ``complete`` field for manifest readers that predate
        fault handling.
        """
        if self.store is None:
            return
        failed = failed or {}
        entries: List[Dict[str, object]] = []
        for point in points:
            if point.index in results:
                state = "complete"
            elif point.index in failed:
                state = "failed"
            else:
                state = "pending"
            entry: Dict[str, object] = {
                "index": point.index,
                "digest": point.digest,
                "label": point.label,
                "complete": state == "complete",
                "state": state,
            }
            if state == "failed":
                entry["error"] = failed[point.index]
            entries.append(entry)
        self.store.save_json(
            "campaign",
            Campaign.digest_of(points),
            {
                "name": campaign.name,
                "exporter": campaign.exporter,
                "total": len(points),
                "points": entries,
            },
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
