"""Campaign broker: leases, heartbeats, and crash-safe re-leasing.

The :class:`Broker` owns campaign manifests inside the service's SQLite
store and hands out **leases** on pending points to any number of workers
— threads, processes, or machines sharing the database file.  The protocol
is the per-point ``failed``-state machinery a resuming ``campaign run``
uses, generalized to a live fleet:

* ``submit`` expands a campaign, marks points whose runs the store already
  holds ``complete``, and queues the rest ``pending`` (a resubmission also
  re-queues ``failed`` points, exactly like running a campaign again);
* ``lease`` atomically claims the first available point — ``pending``, or
  ``leased`` with an **expired** lease (its worker crashed or was
  SIGKILLed) — and stamps it with the worker id and a deadline;
  ``lease_batch`` claims up to *k* such points in one transaction;
* ``heartbeat`` extends every live lease of a worker; a worker that stops
  heartbeating loses its points at the deadline and someone else picks
  them up;
* ``complete`` / ``fail`` close a lease.  Only the *current* lease holder
  can close a point: a worker that lost its lease mid-run gets ``False``
  back, which is harmless — everything it wrote to the store is keyed by
  content digest, so its bytes are identical to the re-leased worker's.
  ``complete_batch`` persists a batch's runs and closes its leases in one
  transaction, still point by point.  A point is its runs: it is complete
  when all of them are stored.

That last property is the digest discipline that makes work stealing safe:
a campaign drained by N workers (any of them killed mid-run) finishes with
bit-identical row digests to a single-process ``CampaignRunner`` run.

A point row holds no scenario: the campaign spec in ``broker_campaigns``
is the one copy, expanded once per broker process and kept in memory
while the campaign has work left, then among the ``DRAINED_EXPANSIONS``
most recently drained campaigns, whose ``/rows`` reads it serves (see
:meth:`Broker.expansion`).  When a close leaves no point pending or
leased, the broker merges the WAL into the database file, so an idle
database is one self-contained file.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..api.campaign import (
    Campaign,
    CampaignPoint,
    fork_onset,
    manifest_payload,
    point_entry,
    prefix_key,
    status_dict,
)
from ..api.scenario import RunKey, Scenario
from .sqlite_store import SQLiteResultStore

#: Point states in the broker tables.
POINT_STATES = ("pending", "leased", "complete", "failed")

#: How many drained campaigns' expansions a broker keeps, the earliest
#: drained evicted first: about 2 KiB a point, 600 KiB for 320 points.
DRAINED_EXPANSIONS = 4


class StaleCampaignError(RuntimeError):
    """A stored campaign spec no longer expands to the points queued for it.

    Raised instead of leasing a scenario the queue did not submit: the
    spec was edited in the database, or the code that expands it changed
    since the submit.  Resubmit the campaign to queue it afresh.
    """


class Expansion(NamedTuple):
    """A submitted campaign and its expanded points, digest-checked."""

    campaign: Campaign
    points: List[CampaignPoint]


@dataclass
class Lease:
    """One claimed point: where it lives and how long the claim holds."""

    campaign: str  #: campaign digest
    index: int
    digest: str  #: point scenario digest
    label: str
    scenario: Scenario
    worker: str
    deadline: float
    lease_seconds: float
    #: Prefix-group key (see :func:`~repro.api.campaign.prefix_key`); None
    #: for points that cannot share a prefix checkpoint.
    prefix: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "index": self.index,
            "digest": self.digest,
            "label": self.label,
            "scenario": self.scenario.to_dict(),
            "worker": self.worker,
            "deadline": self.deadline,
            "lease_seconds": self.lease_seconds,
            "prefix": self.prefix,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Lease":
        return cls(
            campaign=str(payload["campaign"]),
            index=int(payload["index"]),
            digest=str(payload["digest"]),
            label=str(payload.get("label", "")),
            scenario=Scenario.from_dict(payload["scenario"]),
            worker=str(payload.get("worker", "")),
            deadline=float(payload.get("deadline", 0.0)),
            lease_seconds=float(payload.get("lease_seconds", 0.0)),
            prefix=payload.get("prefix") or None,
        )


class Leases(list):
    """The points one lease request granted, in claim order.

    An empty grant is falsy; a non-empty one is named by its first point's
    ``digest``, so a trace keys the grant like that point's other spans.
    """

    @property
    def digest(self) -> Optional[str]:
        return self[0].digest if self else None


@dataclass
class Finished:
    """One leased point a worker ran: what ``complete`` persists, then closes."""

    worker: str
    campaign: str  #: campaign digest
    index: int
    digest: str  #: point scenario digest
    #: the per-seed ``runs`` artifacts, keyed by run digest; a run missing
    #: here and from the store fails the point instead of completing it
    runs: Dict[str, Dict[str, object]]

    @classmethod
    def of(cls, lease: Lease, runs: Dict[str, Dict[str, object]]) -> "Finished":
        return cls(lease.worker, lease.campaign, lease.index, lease.digest, runs)

    def to_dict(self) -> Dict[str, object]:
        return dict(vars(self))  # shallow: the artifacts are not copied


class Broker:
    """Leases campaign points to workers out of a shared SQLite store.

    ``lease_seconds`` is the heartbeat budget: a worker must heartbeat (or
    finish) within it or the point is re-leased.  ``clock`` is injectable
    for tests; production uses wall-clock time because lease expiry is a
    real-time contract between processes.
    """

    def __init__(
        self,
        store: SQLiteResultStore,
        lease_seconds: float = 60.0,
        clock=time.time,
    ) -> None:
        if not isinstance(store, SQLiteResultStore):
            raise TypeError(
                "the broker keeps its manifest in the store's SQLite database; "
                "open the store as a .db file (got %r)" % type(store).__name__
            )
        self.store = store
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        #: campaign digest -> its expansion, while it has work left ...
        self._expansions: Dict[str, Expansion] = {}
        #: ... then while it is among the most recently drained ones
        self._drained: "OrderedDict[str, Expansion]" = OrderedDict()
        #: serve runs each request on its own thread over one broker
        self._held = threading.Lock()
        store.execute(
            "CREATE TABLE IF NOT EXISTS broker_campaigns ("
            " digest TEXT PRIMARY KEY, name TEXT NOT NULL, spec TEXT NOT NULL,"
            " exporter TEXT, total INTEGER NOT NULL, submitted REAL NOT NULL)"
        )
        store.execute(
            "CREATE TABLE IF NOT EXISTS broker_points ("
            " campaign TEXT NOT NULL, idx INTEGER NOT NULL,"
            " digest TEXT NOT NULL, label TEXT NOT NULL,"
            " state TEXT NOT NULL, worker TEXT, lease_expires REAL,"
            " attempts INTEGER NOT NULL DEFAULT 0, error TEXT,"
            " prefix TEXT,"
            " PRIMARY KEY (campaign, idx))"
        )
        store.execute(
            "CREATE TABLE IF NOT EXISTS broker_workers ("
            " worker TEXT PRIMARY KEY, started REAL NOT NULL,"
            " last_seen REAL NOT NULL, completed INTEGER NOT NULL DEFAULT 0,"
            " failed INTEGER NOT NULL DEFAULT 0,"
            " last_prefix TEXT)"
        )
        store.execute(
            "CREATE TABLE IF NOT EXISTS broker_controls ("
            " digest TEXT PRIMARY KEY, paused INTEGER NOT NULL DEFAULT 0,"
            " steps INTEGER NOT NULL DEFAULT 0, updated REAL NOT NULL)"
        )
        # Databases created before prefix-affinity leasing (or before
        # worker telemetry) lack the columns above (CREATE TABLE IF NOT
        # EXISTS never alters); add them in place.  "duplicate column name"
        # on a current schema is the expected no-op.
        for table, column in (
            ("broker_points", "prefix TEXT"),
            ("broker_workers", "last_prefix TEXT"),
            ("broker_workers", "telemetry TEXT"),
        ):
            try:
                store.execute("ALTER TABLE %s ADD COLUMN %s" % (table, column))
            except sqlite3.OperationalError:
                pass
        # Databases created before the spec became the one copy of each
        # point's scenario carry it per row; drop it in place ("no such
        # column" on a current schema is the expected no-op).
        try:
            store.execute("ALTER TABLE broker_points DROP COLUMN scenario")
        except sqlite3.OperationalError:
            pass

    # -- submission ----------------------------------------------------------------------

    def submit(
        self, campaign: Campaign, points: Optional[List[CampaignPoint]] = None
    ) -> Dict[str, object]:
        """Queue a campaign; idempotent, and re-queues ``failed`` points.

        Points whose runs the store already holds are marked ``complete``
        immediately (the broker never re-runs cached work).  ``points`` is
        ``campaign.expand()`` when the caller has expanded it already.
        Returns the campaign's status payload.
        """
        if points is None:
            points = campaign.expand()
        digest = Campaign.digest_of(points)
        now = self.clock()
        # Resubmitting is the fleet's ``resume``: failed points go back in
        # the queue (those whose runs the store holds are closed below).
        self.requeue_failed(digest)
        with self.store.transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO broker_campaigns"
                " (digest, name, spec, exporter, total, submitted)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    digest,
                    campaign.name,
                    campaign.to_json(indent=None),
                    campaign.exporter,
                    len(points),
                    now,
                ),
            )
            for point in points:
                done = self._missing_run(point.run_keys) is None
                # NULL keeps a point that cannot fork out of affinity ordering.
                forkable = fork_onset(point.scenario) is not None
                prefix = prefix_key(point.scenario) if forkable else None
                conn.execute(
                    "INSERT OR IGNORE INTO broker_points"
                    " (campaign, idx, digest, label, state, prefix)"
                    " VALUES (?, ?, ?, ?, 'pending', ?)",
                    (digest, point.index, point.digest, point.label, prefix),
                )
                # Resubmission from a pre-affinity database: the row exists
                # without a prefix, so the INSERT above was ignored.
                conn.execute(
                    "UPDATE broker_points SET prefix=?"
                    " WHERE campaign=? AND idx=? AND prefix IS NOT ?",
                    (prefix, digest, point.index, prefix),
                )
                if done:
                    conn.execute(
                        "UPDATE broker_points SET state='complete', worker=NULL,"
                        " lease_expires=NULL, error=NULL"
                        " WHERE campaign=? AND idx=? AND state != 'complete'",
                        (digest, point.index),
                    )
        self._hold(digest, Expansion(campaign, points), not self.outstanding(digest))
        return self._sync_manifest(digest)

    def expansion(self, digest: str) -> Optional[Expansion]:
        """The campaign ``digest`` and its expanded points (None if unknown).

        Held from ``submit`` while the campaign has work left, then among
        the ``DRAINED_EXPANSIONS`` most recently drained (or rebuilt) ones.
        Any other campaign (another process submitted it, this one
        restarted, or it was evicted) is expanded from its stored spec, and
        that expansion must hash to the campaign's digest: one that does not
        is refused with both digests named, never leased or reported.
        """
        with self._held:
            held = self._expansions.get(digest) or self._drained.get(digest)
        if held is not None:
            return held
        campaign = self.campaign(digest)
        if campaign is None:
            return None
        points = campaign.expand()
        rebuilt = Campaign.digest_of(points)
        if rebuilt != digest:
            raise StaleCampaignError(
                "campaign %s: its stored spec expands to campaign %s;"
                " resubmit the campaign" % (digest, rebuilt)
            )
        held = Expansion(campaign, points)
        self._hold(digest, held, not self.outstanding(digest))
        return held

    def campaign(self, digest: str) -> Optional[Campaign]:
        """The submitted campaign object for ``digest`` (None if unknown)."""
        row = self.store.execute(
            "SELECT spec FROM broker_campaigns WHERE digest=?", (digest,)
        ).fetchone()
        if row is None:
            return None
        return Campaign.from_json(row[0])

    def campaigns(self) -> List[Dict[str, object]]:
        """Summaries of every submitted campaign (most recent first)."""
        rows = self.store.execute(
            "SELECT digest, name, total, submitted FROM broker_campaigns"
            " ORDER BY submitted DESC, digest"
        ).fetchall()
        return [
            {
                "digest": digest,
                "name": name,
                "total": total,
                "submitted": submitted,
                "counts": self._counts(digest),
            }
            for digest, name, total, submitted in rows
        ]

    # -- leasing -------------------------------------------------------------------------

    def lease(
        self, worker: str, campaign: Optional[str] = None
    ) -> Optional[Lease]:
        """Atomically claim the best available point for ``worker``.

        Available means ``pending``, or ``leased`` past its deadline (the
        previous worker died or stalled — this is the crash-safe
        re-leasing).  Among the available points the broker prefers, in
        order:

        1. a point in the **same prefix group** the worker last leased —
           the worker keeps draining a group whose shared checkpoint it has
           already paid for (``--fork-prefixes`` reuses it from the store);
        2. a point whose prefix group no *other* live worker is currently
           inside, so each group is drained by one worker instead of every
           worker re-deriving the same checkpoint;
        3. anything, in the usual deterministic ``(campaign, idx)`` order.

        Returns ``None`` when nothing is claimable right now; check
        :meth:`outstanding` to distinguish "all done" from "all leased to
        live workers".
        """
        now = self.clock()
        with self.store.transaction() as conn:
            self._touch_worker(conn, worker, now)
            last_row = conn.execute(
                "SELECT last_prefix FROM broker_workers WHERE worker=?",
                (worker,),
            ).fetchone()
            last_prefix = last_row[0] if last_row else None

            base = (
                "SELECT campaign, idx, digest, label, prefix"
                " FROM broker_points"
                " WHERE (state='pending' OR (state='leased' AND lease_expires < ?))"
            )
            base_params: List[object] = [now]
            if campaign is not None:
                base += " AND campaign=?"
                base_params.append(campaign)

            tiers: List[Tuple[str, List[object]]] = []
            if last_prefix:
                tiers.append((" AND prefix=?", [last_prefix]))
            # NULL-prefix points pass the NOT EXISTS (NULL = NULL is not
            # true), so tier 2 also covers points outside any group.
            tiers.append(
                (
                    " AND NOT EXISTS (SELECT 1 FROM broker_points q"
                    "  WHERE q.state='leased' AND q.lease_expires >= ?"
                    "  AND q.worker != ? AND q.campaign = broker_points.campaign"
                    "  AND q.prefix = broker_points.prefix)",
                    [now, worker],
                )
            )
            tiers.append(("", []))

            row = None
            for clause, extra in tiers:
                row = conn.execute(
                    base + clause + " ORDER BY campaign, idx LIMIT 1",
                    tuple(base_params + extra),
                ).fetchone()
                if row is not None:
                    break
            if row is None:
                return None
            campaign_digest, index, digest, label, prefix = row
            point = self._point(campaign_digest, index)
            if point is None or point.digest != digest:
                raise StaleCampaignError(
                    "campaign %s point #%d: its spec expands to scenario %s,"
                    " the queue holds %s; resubmit the campaign"
                    % (campaign_digest, index, point and point.digest, digest)
                )
            deadline = now + self.lease_seconds
            conn.execute(
                "UPDATE broker_points SET state='leased', worker=?,"
                " lease_expires=?, attempts=attempts+1"
                " WHERE campaign=? AND idx=?",
                (worker, deadline, campaign_digest, index),
            )
            conn.execute(
                "UPDATE broker_workers SET last_prefix=? WHERE worker=?",
                (prefix, worker),
            )
        return Lease(
            campaign=campaign_digest,
            index=index,
            digest=digest,
            label=label,
            scenario=point.scenario,
            worker=worker,
            deadline=deadline,
            lease_seconds=self.lease_seconds,
            prefix=prefix,
        )

    def lease_batch(
        self, worker: str, campaign: Optional[str] = None, limit: int = 1
    ) -> Leases:
        """Claim up to ``limit`` points for ``worker`` in one transaction.

        Each point is one :meth:`lease` — the same claim, affinity tiers
        and deadline — so a batch first drains the prefix group the worker
        last leased.  The grant is also capped at ⌈claimable / (2 × live
        workers)⌉ (guided self-scheduling): grants shrink as the queue
        does, so the last points spread over the fleet instead of waiting
        in one worker's batch.  A worker is live when it talked to the
        broker within the last ``lease_seconds``.
        """
        leases = Leases()
        with self.store.transaction() as conn:
            now = self.clock()
            self._touch_worker(conn, worker, now)
            claimable_sql = (
                "SELECT COUNT(*) FROM broker_points WHERE (state='pending'"
                " OR (state='leased' AND lease_expires < ?))"
            )
            params: List[object] = [now]
            if campaign is not None:
                claimable_sql += " AND campaign=?"
                params.append(campaign)
            claimable = conn.execute(claimable_sql, tuple(params)).fetchone()[0]
            live = conn.execute(
                "SELECT COUNT(*) FROM broker_workers WHERE last_seen >= ?",
                (now - self.lease_seconds,),
            ).fetchone()[0]
            limit = min(limit, math.ceil(claimable / (2 * max(1, live))))
            while len(leases) < limit:
                lease = self.lease(worker, campaign=campaign)
                if lease is None:
                    break
                leases.append(lease)
        return leases

    def heartbeat(
        self,
        worker: str,
        campaign: str,
        index: int,
        telemetry: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Extend every live lease ``worker`` holds; ``False`` means the
        named point's lease was lost.

        A worker beats for its whole batch while running one point of it,
        and names that point: its lease is the one the answer is about, and
        its digest is whose run controls the response carries.  Leases
        that already expired stay expired (someone may have stolen them).
        ``telemetry`` is an optional sampled-stats dict the worker forwards
        with the beat (points completed, mean point wall time, consecutive
        heartbeat failures, ...); it is persisted as-is on the worker row
        and surfaced by :meth:`workers`.
        """
        now = self.clock()
        with self.store.transaction() as conn:
            self._touch_worker(conn, worker, now)
            if telemetry is not None:
                conn.execute(
                    "UPDATE broker_workers SET telemetry=? WHERE worker=?",
                    (json.dumps(telemetry, sort_keys=True), worker),
                )
            conn.execute(
                "UPDATE broker_points SET lease_expires=?"
                " WHERE state='leased' AND worker=? AND lease_expires >= ?",
                (now + self.lease_seconds, worker, now),
            )
            held = conn.execute(
                "SELECT 1 FROM broker_points WHERE campaign=? AND idx=?"
                " AND state='leased' AND worker=? AND lease_expires >= ?",
                (campaign, index, worker, now),
            ).fetchone()
            return held is not None

    # -- run control ---------------------------------------------------------------------

    def set_control(self, digest: str, action: str, events: int = 1) -> Dict[str, object]:
        """Record a pause/resume/step request for the point ``digest``.

        Controls are addressed by point (scenario) digest — the one name a
        run has that is stable across lease stealing.  Workers pick the
        state up in their heartbeat responses and apply it to the running
        session's :class:`~repro.telemetry.stream.RunControl`.  ``step``
        accumulates: the ``steps`` column is a monotone grant counter and
        the worker executes the delta it has not yet honoured.
        """
        if action not in ("pause", "resume", "step"):
            raise ValueError("unknown control action %r" % action)
        now = self.clock()
        with self.store.transaction() as conn:
            conn.execute(
                "INSERT INTO broker_controls (digest, paused, steps, updated)"
                " VALUES (?, 0, 0, ?)"
                " ON CONFLICT(digest) DO UPDATE SET updated=excluded.updated",
                (digest, now),
            )
            if action == "pause":
                conn.execute(
                    "UPDATE broker_controls SET paused=1 WHERE digest=?", (digest,)
                )
            elif action == "resume":
                conn.execute(
                    "UPDATE broker_controls SET paused=0, steps=0 WHERE digest=?",
                    (digest,),
                )
            else:
                conn.execute(
                    "UPDATE broker_controls SET paused=1, steps=steps+?"
                    " WHERE digest=?",
                    (max(1, int(events)), digest),
                )
        return self.control_for(digest) or {}

    def control_for(self, digest: str) -> Optional[Dict[str, object]]:
        """The control row for a point digest, or None when never touched."""
        row = self.store.execute(
            "SELECT paused, steps, updated FROM broker_controls WHERE digest=?",
            (digest,),
        ).fetchone()
        if row is None:
            return None
        paused, steps, updated = row
        return {
            "digest": digest,
            "paused": bool(paused),
            "steps": int(steps),
            "updated": updated,
        }

    def complete(self, worker: str, campaign: str, index: int) -> bool:
        """Mark a leased point complete (current lease holder only).

        Every run the point's scenario names must be in the store by now; a
        completion without them is converted into a failure so the point is
        re-leased instead of silently lost.
        """
        point = self._point(campaign, index)
        if point is not None:
            missing = self._missing_run(point.run_keys)
            if missing is not None:
                error = "completed without a result: run %s is missing" % missing[:12]
                self.fail(worker, campaign, index, error)
                return False
        now = self.clock()
        with self.store.transaction() as conn:
            self._touch_worker(conn, worker, now)
            cursor = conn.execute(
                "UPDATE broker_points SET state='complete', worker=NULL,"
                " lease_expires=NULL, error=NULL"
                " WHERE campaign=? AND idx=? AND state='leased' AND worker=?",
                (campaign, index, worker),
            )
            won = cursor.rowcount == 1
            if won:
                conn.execute(
                    "UPDATE broker_workers SET completed=completed+1 WHERE worker=?",
                    (worker,),
                )
        return won

    def complete_batch(self, finished: Sequence[Finished]) -> List[bool]:
        """Write every point's missing ``runs`` and :meth:`complete` it, in one
        transaction.

        Runs are digest-keyed, so a stale worker's duplicates are
        byte-identical and what the store already holds is kept.  Returns
        one flag per point: each closes (or, without its runs, fails) only
        for its current lease holder, exactly as one-point calls would; the
        batch shares nothing but the commit.
        """
        with self.store.transaction():
            accepted = []
            for point in finished:
                for digest, run in point.runs.items():
                    if not self.store.has("runs", digest):
                        self.store.save_json("runs", digest, [run])
                accepted.append(self.complete(point.worker, point.campaign, point.index))
        self._settle(point.campaign for point in finished)
        return accepted

    def fail(self, worker: str, campaign: str, index: int, error: str) -> bool:
        """Mark a leased point failed (kept for a resubmit to re-queue)."""
        now = self.clock()
        with self.store.transaction() as conn:
            self._touch_worker(conn, worker, now)
            cursor = conn.execute(
                "UPDATE broker_points SET state='failed', worker=NULL,"
                " lease_expires=NULL, error=?"
                " WHERE campaign=? AND idx=? AND state='leased' AND worker=?",
                (str(error), campaign, index, worker),
            )
            lost = cursor.rowcount == 1
            if lost:
                conn.execute(
                    "UPDATE broker_workers SET failed=failed+1 WHERE worker=?",
                    (worker,),
                )
        if lost:
            self._sync_manifest(campaign)
        self._settle((campaign,))
        return lost

    def requeue_failed(self, campaign: str) -> int:
        """Move every ``failed`` point of a campaign back to ``pending``."""
        cursor = self.store.execute(
            "UPDATE broker_points SET state='pending', worker=NULL,"
            " lease_expires=NULL WHERE campaign=? AND state='failed'",
            (campaign,),
        )
        if cursor.rowcount:
            self._sync_manifest(campaign)
        return cursor.rowcount

    def outstanding(self, campaign: Optional[str] = None) -> int:
        """Points still pending or leased (i.e. work that may yet need a worker)."""
        sql = (
            "SELECT COUNT(*) FROM broker_points"
            " WHERE state IN ('pending', 'leased')"
        )
        params: tuple = ()
        if campaign is not None:
            sql += " AND campaign=?"
            params = (campaign,)
        return self.store.execute(sql, params).fetchone()[0]

    # -- inspection ----------------------------------------------------------------------

    def _counts(self, campaign: str) -> Dict[str, int]:
        counts = {state: 0 for state in POINT_STATES}
        for state, count in self.store.execute(
            "SELECT state, COUNT(*) FROM broker_points WHERE campaign=?"
            " GROUP BY state",
            (campaign,),
        ).fetchall():
            counts[state] = count
        return counts

    def status(self, campaign: str, include_points: bool = True) -> Dict[str, object]:
        """Machine-readable campaign status — the service's status payload.

        Shares its schema with ``CampaignStatus.to_dict`` (the ``campaign
        status --json`` output) via :func:`~repro.api.campaign.status_dict`,
        with the extra ``leased`` state only a live fleet can produce.
        """
        row = self.store.execute(
            "SELECT name, total, exporter FROM broker_campaigns WHERE digest=?",
            (campaign,),
        ).fetchone()
        if row is None:
            raise KeyError("unknown campaign %r" % campaign)
        name, total, exporter = row
        entries: List[Dict[str, object]] = []
        if include_points:
            entries = [
                point_entry(
                    index,
                    digest,
                    label,
                    state,
                    error,
                    attempts=attempts,
                    worker=worker or None,
                    lease_expires=expires,
                )
                for index, digest, label, state, worker, expires, attempts, error in (
                    self.store.execute(
                        "SELECT idx, digest, label, state, worker, lease_expires,"
                        " attempts, error FROM broker_points WHERE campaign=?"
                        " ORDER BY idx",
                        (campaign,),
                    ).fetchall()
                )
            ]
        payload = status_dict(name, campaign, total, self._counts(campaign), entries)
        payload["exporter"] = exporter
        return payload

    def workers(self) -> List[Dict[str, object]]:
        """Every worker the broker has seen, with lease, liveness, and
        throughput info.

        ``heartbeat_age`` is seconds since the worker last talked to the
        broker at all (lease, beat, or completion).  The throughput fields
        — ``points_completed``, ``mean_point_wall_s``,
        ``consecutive_heartbeat_failures`` — come from the sampled
        telemetry dict the worker forwards in its heartbeats; they are
        absent for workers that never sent one (pre-telemetry clients).
        """
        now = self.clock()
        rows = self.store.execute(
            "SELECT worker, started, last_seen, completed, failed, telemetry"
            " FROM broker_workers ORDER BY worker"
        ).fetchall()
        leases = {
            worker: (campaign, index, expires)
            for campaign, index, worker, expires in self.store.execute(
                "SELECT campaign, idx, worker, lease_expires FROM broker_points"
                " WHERE state='leased'"
            ).fetchall()
        }
        output = []
        for worker, started, last_seen, completed, failed, telemetry in rows:
            record: Dict[str, object] = {
                "worker": worker,
                "started": started,
                "last_seen": last_seen,
                "idle_seconds": max(0.0, now - last_seen),
                "heartbeat_age": max(0.0, now - last_seen),
                "completed": completed,
                "failed": failed,
            }
            if telemetry:
                try:
                    sample = json.loads(telemetry)
                except ValueError:
                    sample = None
                if isinstance(sample, dict):
                    for key in (
                        "points_completed",
                        "points_failed",
                        "mean_point_wall_s",
                        "last_point_wall_s",
                        "consecutive_heartbeat_failures",
                    ):
                        if key in sample:
                            record[key] = sample[key]
            lease = leases.get(worker)
            if lease is not None:
                record["lease"] = {
                    "campaign": lease[0],
                    "index": lease[1],
                    "expires_in": lease[2] - now,
                }
            output.append(record)
        return output

    # -- internals -----------------------------------------------------------------------

    def _point(self, campaign: str, index: int) -> Optional[CampaignPoint]:
        """Point ``index`` of ``campaign``'s :meth:`expansion` (None if unknown)."""
        held = self.expansion(campaign)
        if held is None:
            return None
        points = held.points
        return points[index] if 0 <= index < len(points) else None

    def _hold(self, digest: str, expansion: Expansion, drained: bool) -> None:
        """Keep ``expansion`` as outstanding or, once drained, as the most
        recently drained one, evicting the earliest past ``DRAINED_EXPANSIONS``."""
        with self._held:
            if not drained:
                self._drained.pop(digest, None)
                self._expansions[digest] = expansion
                return
            self._expansions.pop(digest, None)
            self._drained[digest] = expansion
            self._drained.move_to_end(digest)
            while len(self._drained) > DRAINED_EXPANSIONS:
                self._drained.popitem(last=False)

    def _settle(self, campaigns) -> None:
        """After closes: move drained campaigns' expansions to the drained
        set, and merge the WAL into the database file once no point anywhere
        is left to run."""
        for campaign in set(campaigns):
            held = self._expansions.get(campaign)
            if held is not None and not self.outstanding(campaign):
                self._hold(campaign, held, drained=True)
        if not self.outstanding():
            self.store.checkpoint()

    def _missing_run(self, run_keys: Sequence[RunKey]) -> Optional[str]:
        """The first run digest of ``run_keys`` the store lacks, or None."""
        return next((d for _, _, d in run_keys if not self.store.has("runs", d)), None)

    @staticmethod
    def _touch_worker(conn, worker: str, now: float) -> None:
        conn.execute(
            "INSERT INTO broker_workers (worker, started, last_seen)"
            " VALUES (?, ?, ?)"
            " ON CONFLICT(worker) DO UPDATE SET last_seen=excluded.last_seen",
            (worker, now, now),
        )

    def _sync_manifest(self, campaign: str) -> Dict[str, object]:
        """Write the store's ``campaign`` artifact from the broker tables.

        Keeps ``repro-experiments campaign status`` truthful for service-run
        campaigns: it reads failures there and completion from the runs.
        Returns the status payload the artifact was built from.
        """
        status = self.status(campaign)
        self.store.save_json(
            "campaign",
            campaign,
            manifest_payload(
                status["name"], status["exporter"], status["total"], status["points"]
            ),
        )
        return status
