"""Work-stealing campaign workers.

A :class:`Worker` drains a broker's queue: lease a batch of points, run
each through a :class:`~repro.api.session.Session` (which honors
``timeout`` / ``retries`` / ``record`` exactly as a single-process campaign
would), report the batch's runs by content digest in one request,
repeat.  A background thread heartbeats the batch's leases while the
simulations run, so a healthy worker can hold points for much longer than
``lease_seconds`` — only a *dead* one forfeits them.

Workers reach the broker through one of two transports:

* :class:`LocalBrokerClient` — in-process :class:`~repro.service.broker.Broker`
  over a shared SQLite store file; runs are written to the store
  directly (several worker processes on one machine, or machines mounting
  one filesystem, drain one queue this way);
* :class:`HttpBrokerClient` — the JSON API served by
  ``repro-experiments serve``; runs travel in the ``complete`` request
  and the server persists them, so remote workers need no store at all.

Either way the store artifacts are keyed by content digest, so two workers
racing on a re-leased point write identical bytes and the campaign's row
digests match a single-process run bit for bit.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import socket
import sqlite3
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple

LOGGER = logging.getLogger(__name__)

from ..api.campaign import Campaign, plan_fork_groups, slice_fork_groups
from ..api.scenario import Scenario
from ..api.session import ExperimentResult, ForkGroup, Session
from .broker import Broker, Finished, Lease, Leases

#: What a heartbeat may raise when the broker is unreachable or refuses:
#: socket and HTTP failures, an error status (``RuntimeError`` from
#: :meth:`HttpBrokerClient.request`), or a locked or broken SQLite file.
#: The beat thread counts these and retries; anything else is a bug and
#: stops the worker.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, RuntimeError, sqlite3.Error)


def run_payloads(
    scenario: Scenario, result: ExperimentResult
) -> Dict[str, Dict[str, object]]:
    """Per-seed run artifacts of one executed point, keyed by run digest.

    These are exactly the ``runs-<digest>`` artifacts a store-attached
    session would have persisted itself; a storeless (HTTP) worker ships
    them to the server instead.
    """
    # run_keys() lists the attacked keys, then (only with an adversary) the
    # baseline keys — so without one, zip stops before the baseline runs.
    runs = result.attacked_runs + result.baseline_runs
    return {
        digest: run.to_dict()
        for (_, _, digest), run in zip(scenario.run_keys(), runs)
    }


class LocalBrokerClient:
    """Broker access for workers sharing the store's SQLite file."""

    def __init__(self, broker: Broker) -> None:
        self.broker = broker

    def lease(
        self, worker: str, campaign: Optional[str] = None, limit: int = 1
    ) -> Tuple[Leases, int]:
        leases = self.broker.lease_batch(worker, campaign=campaign, limit=limit)
        return leases, self.broker.outstanding(campaign)

    def get_campaign(self, digest: str) -> Optional[Campaign]:
        return self.broker.campaign(digest)

    def heartbeat(
        self, lease: Lease, telemetry: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        ok = self.broker.heartbeat(
            lease.worker, lease.campaign, lease.index, telemetry=telemetry
        )
        return {"ok": ok, "control": self.broker.control_for(lease.digest)}

    def complete(self, *finished: Finished) -> List[bool]:
        # A store-attached session has usually persisted the artifacts
        # already; writing what is missing keeps storeless sessions correct.
        return self.broker.complete_batch(finished)

    def fail(self, lease: Lease, error: str) -> bool:
        return self.broker.fail(lease.worker, lease.campaign, lease.index, error)


class HttpBrokerClient:
    """Broker access over the ``repro-experiments serve`` JSON API.

    Every thread that uses the client (a worker's loop, its heartbeat
    thread) keeps one keep-alive connection, so a request costs one round
    trip instead of a TCP handshake and teardown.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    # -- transport -----------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._host, timeout=self.timeout)
            self._local.connection = connection
        return connection

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, self._prefix + path, body, headers)
                response = connection.getresponse()
            except ConnectionError:
                # A kept-alive connection the server has since closed (it
                # restarted) fails on first use: retry once, on a new one.
                if not reused:
                    raise
                connection.close()
                connection.request(method, self._prefix + path, body, headers)
                response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()  # never reuse a connection mid-exchange
            raise
        if response.status >= 400:
            try:
                detail = json.loads(data.decode("utf-8")).get("error", "")
            except (ValueError, AttributeError):
                detail = ""  # the error body is not a JSON object
            raise RuntimeError(
                "%s %s failed: HTTP %d %s" % (method, path, response.status, detail)
            )
        return json.loads(data.decode("utf-8"))

    # -- broker protocol -----------------------------------------------------------------

    def submit(self, campaign_payload: Dict[str, object]) -> Dict[str, object]:
        return self.request("POST", "/api/campaigns", campaign_payload)

    def lease(
        self, worker: str, campaign: Optional[str] = None, limit: int = 1
    ) -> Tuple[Leases, int]:
        payload: Dict[str, object] = {"worker": worker, "limit": limit}
        if campaign is not None:
            payload["campaign"] = campaign
        response = self.request("POST", "/api/lease", payload)
        return (
            Leases(Lease.from_dict(lease) for lease in response.get("leases") or ()),
            int(response.get("outstanding", 0)),
        )

    def get_campaign(self, digest: str) -> Optional[Campaign]:
        response = self.request("GET", "/api/campaigns/%s/spec" % digest)
        payload = response.get("campaign")
        return Campaign.from_dict(payload) if payload else None

    def heartbeat(
        self, lease: Lease, telemetry: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "worker": lease.worker,
            "campaign": lease.campaign,
            "index": lease.index,
            "digest": lease.digest,
        }
        if telemetry is not None:
            payload["telemetry"] = telemetry
        return self.request("POST", "/api/heartbeat", payload)

    def complete(self, *finished: Finished) -> List[bool]:
        response = self.request(
            "POST", "/api/complete", {"points": [point.to_dict() for point in finished]}
        )
        return [bool(accepted) for accepted in response.get("accepted", ())]

    def fail(self, lease: Lease, error: str) -> bool:
        response = self.request(
            "POST",
            "/api/fail",
            {
                "worker": lease.worker,
                "campaign": lease.campaign,
                "index": lease.index,
                "error": error,
            },
        )
        return bool(response.get("ok"))


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per process, readable in ``workers`` listings."""
    return "%s-%d" % (socket.gethostname(), os.getpid())


class Worker:
    """The lease → run → report loop.

    ``run()`` drains the queue: it exits once no point is claimable *and*
    nothing is outstanding (every point complete or failed), so a fleet of
    workers all terminate when the campaign does.  While another worker
    still holds a lease the loop keeps polling — if that worker dies, its
    lease expires and this one steals the point.

    Points travel in batches: one request leases them, one request
    completes the ones that ran.  The batch size is not a setting.  A
    worker asks for one point until it has timed one, then for as many as
    its mean point wall time fits into one heartbeat interval
    (``lease_seconds / 3``): a campaign of heavy points keeps one point
    per request, and a crashed worker loses about one interval of work.
    The broker may grant fewer (see :meth:`Broker.lease_batch`).

    ``max_points`` bounds how many points this worker executes (the
    deterministic stand-in for killing it), and so how many it leases;
    ``campaign`` restricts leasing to one campaign digest.

    With ``fork_prefixes`` the worker executes forkable points through the
    prefix-checkpoint machinery (see docs/CAMPAIGNS.md): the first point of
    a prefix group captures the shared baseline checkpoint into the store,
    and — because the broker's lease ordering keeps a worker on the prefix
    group it last touched — the rest of the group loads it back and forks,
    skipping the pre-onset simulation entirely.  Results stay bit-identical
    to full runs; this is an execution strategy, not a different campaign.
    """

    def __init__(
        self,
        client,
        session: Optional[Session] = None,
        worker_id: Optional[str] = None,
        campaign: Optional[str] = None,
        poll_interval: float = 0.5,
        max_points: Optional[int] = None,
        on_event: Optional[Callable[[str], None]] = None,
        fork_prefixes: bool = False,
    ) -> None:
        self.client = client
        self.session = session if session is not None else Session()
        self.worker_id = worker_id if worker_id else default_worker_id()
        self.campaign = campaign
        self.poll_interval = poll_interval
        self.max_points = max_points
        self.on_event = on_event
        self.fork_prefixes = fork_prefixes and not self.session.record
        self.completed = 0
        self.failed = 0
        self.stolen = 0
        #: total and consecutive heartbeat delivery failures (satellite of
        #: the telemetry PR: the beat thread used to swallow these silently)
        self.heartbeat_failures = 0
        self.consecutive_heartbeat_failures = 0
        #: wall-clock seconds of successful point runs, for throughput stats
        #: and the batch size
        self._point_walls: List[float] = []
        #: the point the worker is running; heartbeats name it
        self._running: Optional[Lease] = None
        #: cumulative ``steps`` grants from the broker already honoured
        self._control_steps_applied = 0
        # Workers always run under a RunControl so a pause/step request
        # arriving mid-run (via heartbeat responses) can take effect.  The
        # controlled slice loop processes events in the identical order, so
        # result digests are unchanged.
        if self.session.control is None:
            from ..telemetry.stream import RunControl

            self.session.control = RunControl()
        #: campaign digest -> the whole campaign's fork groups
        self._fork_plans: Dict[str, List[ForkGroup]] = {}

    def _log(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event("[%s] %s" % (self.worker_id, message))

    # -- prefix forking ------------------------------------------------------------------

    def _campaign_fork_groups(self, campaign_digest: str) -> List[ForkGroup]:
        """The campaign's fork groups, planned once per worker and cached.

        Planning runs over the campaign's *full* point set — the same call
        :class:`~repro.api.campaign.CampaignRunner` makes — so fork times
        and checkpoint digests match a single-process ``--fork-prefixes``
        run exactly, and every worker in the fleet agrees on them.
        """
        groups = self._fork_plans.get(campaign_digest)
        if groups is None:
            try:
                campaign = self.client.get_campaign(campaign_digest)
            except (RuntimeError, OSError, ValueError, sqlite3.Error) as error:
                LOGGER.warning(
                    "worker %s: cannot fetch campaign %s to plan prefix forks"
                    " (%s); its points run in full",
                    self.worker_id,
                    campaign_digest[:12],
                    error,
                )
                campaign = None
            groups = plan_fork_groups(campaign.expand()) if campaign is not None else []
            self._fork_plans[campaign_digest] = groups
        return groups

    def _fork_point(self, lease: Lease) -> None:
        """Warm the session cache for a forkable point before the full run.

        A lease covers one point, so each of its groups is sliced to that
        point's attacked member plus the shared baseline.  The subsequent
        ``session.run`` simulates whatever the fork pass did not cache (the
        session logs a group that failed), so the point still completes —
        just without the speedup.
        """
        groups = slice_fork_groups(
            self._campaign_fork_groups(lease.campaign), [lease.scenario]
        )
        if not groups:
            return
        self._log(
            "point #%d: forking %d run(s) from prefix checkpoint %s"
            % (lease.index, len(groups), groups[0].checkpoint_digest[:12])
        )
        self.session.run_fork_groups(groups)

    # -- telemetry and control -----------------------------------------------------------

    def telemetry_sample(self) -> Dict[str, object]:
        """The sampled stats dict forwarded with every heartbeat.

        The broker persists it on the worker row, so ``/api/workers`` (and
        the dashboard's fleet table) can show per-worker throughput without
        a second reporting channel.
        """
        sample: Dict[str, object] = {
            "points_completed": self.completed,
            "points_failed": self.failed,
            "consecutive_heartbeat_failures": self.consecutive_heartbeat_failures,
        }
        if self._point_walls:
            sample["mean_point_wall_s"] = sum(self._point_walls) / len(
                self._point_walls
            )
            sample["last_point_wall_s"] = self._point_walls[-1]
        return sample

    def _apply_control(self, control: object) -> None:
        """Honour a broker control row against the running session.

        ``steps`` is a monotone grant counter; the worker executes only the
        delta it has not yet honoured, so repeated heartbeats carrying the
        same row are no-ops.  A ``resume`` (paused false) resets the
        counter on both sides.
        """
        ctl = self.session.control
        if ctl is None or not isinstance(control, dict):
            return
        if control.get("paused"):
            steps = int(control.get("steps", 0))
            delta = steps - self._control_steps_applied
            ctl.pause()
            if delta > 0:
                self._control_steps_applied = steps
                ctl.step(delta)
        else:
            self._control_steps_applied = 0
            ctl.resume()

    # -- execution -----------------------------------------------------------------------

    def _batch_size(self, lease_seconds: float) -> int:
        """Points to ask for next: one until a point is timed, then as many
        as fit into one heartbeat interval."""
        if not self._point_walls:
            return 1
        mean = sum(self._point_walls) / len(self._point_walls)
        return max(1, int(_beat_interval(lease_seconds) / max(mean, 1e-9)))

    def _beat(
        self, stop: threading.Event, interval: float, crashed: List[BaseException]
    ) -> None:
        """The heartbeat thread: every ``interval`` until ``stop``, extend this
        worker's leases, naming the point it is running.

        A transport failure is counted, logged and retried at the next beat;
        anything else is a bug, kept in ``crashed`` for the worker to raise.
        """
        try:
            while not stop.wait(interval):
                lease = self._running
                try:
                    response = self.client.heartbeat(
                        lease, telemetry=self.telemetry_sample()
                    )
                except TRANSPORT_ERRORS as error:
                    # Never silently: a worker that cannot reach its broker
                    # is about to lose its leases, and the operator should
                    # see that coming.
                    self.heartbeat_failures += 1
                    self.consecutive_heartbeat_failures += 1
                    LOGGER.warning(
                        "worker %s: heartbeat for point #%d failed"
                        " (%s; consecutive failures: %d)",
                        self.worker_id,
                        lease.index,
                        error,
                        self.consecutive_heartbeat_failures,
                    )
                    self._log(
                        "heartbeat failed (%s); consecutive failures: %d"
                        % (error, self.consecutive_heartbeat_failures)
                    )
                    continue
                self.consecutive_heartbeat_failures = 0
                if not response.get("ok"):
                    # Lease lost (expired and re-leased).  Keep running:
                    # the results are digest-keyed, so finishing wastes
                    # nothing, and aborting mid-simulation gains nothing.
                    self._log(
                        "lease on point #%d lost; finishing anyway" % lease.index
                    )
                self._apply_control(response.get("control"))
        except BaseException as error:
            crashed.append(error)

    def run_point(self, lease: Lease) -> Optional[Finished]:
        """Execute one leased point; what to complete, or ``None`` if it failed.

        A failed point is reported with ``fail`` right away; a finished
        one waits for its batch's ``complete``.
        """
        self._running = lease
        started = time.perf_counter()
        try:
            if self.fork_prefixes and lease.prefix:
                self._fork_point(lease)
            result = self.session.run(lease.scenario)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            self.client.fail(lease, str(error))
            self.failed += 1
            self._log("point #%d failed: %s" % (lease.index, error))
            return None
        self._point_walls.append(time.perf_counter() - started)
        return Finished.of(lease, run_payloads(lease.scenario, result))

    def run_batch(self, leases: Leases) -> None:
        """Run a batch's points under one heartbeat thread, then complete
        the finished ones in one request."""
        stop = threading.Event()
        crashed: List[BaseException] = []
        self._running = leases[0]
        beater = threading.Thread(
            target=self._beat,
            args=(stop, _beat_interval(leases[0].lease_seconds), crashed),
            daemon=True,
        )
        beater.start()
        finished: List[Finished] = []
        try:
            for lease in leases:
                done = self.run_point(lease)
                if done is not None:
                    finished.append(done)
        finally:
            stop.set()
            beater.join()
        if crashed:
            raise crashed[0]
        if not finished:
            return
        for done, accepted in zip(finished, self.client.complete(*finished)):
            if accepted:
                self.completed += 1
                self._log("point #%d complete (%s)" % (done.index, done.digest[:12]))
            else:
                # Someone else re-leased and closed it first; the store
                # holds one copy of the (identical) artifacts either way.
                self.stolen += 1
                self._log("point #%d was re-leased elsewhere" % done.index)

    def run(self) -> Dict[str, int]:
        """Lease and run points until the queue is drained (or ``max_points``)."""
        lease_seconds = 0.0
        while True:
            limit = self._batch_size(lease_seconds)
            if self.max_points is not None:
                limit = min(
                    limit, self.max_points - self.completed - self.failed - self.stolen
                )
                if limit <= 0:
                    self._log("max points reached; exiting")
                    break
            leases, outstanding = self.client.lease(
                self.worker_id, self.campaign, limit
            )
            if not leases:
                if outstanding == 0:
                    self._log("queue drained; exiting")
                    break
                # Every remaining point is leased to a live worker; wait in
                # case one of those leases expires.
                time.sleep(self.poll_interval)
                continue
            first = leases[0]
            lease_seconds = first.lease_seconds
            self._log(
                "leased %d point(s) of %s from #%d (%s)"
                % (len(leases), first.campaign[:12], first.index, first.label)
            )
            self.run_batch(leases)
        return {
            "worker": self.worker_id,
            "completed": self.completed,
            "failed": self.failed,
            "stolen": self.stolen,
        }


def _beat_interval(lease_seconds: float) -> float:
    """Seconds between heartbeats: three beats fit into one lease."""
    return max(0.1, lease_seconds / 3.0)
