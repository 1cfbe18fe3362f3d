"""Work-stealing campaign workers.

A :class:`Worker` drains a broker's queue: lease a point, run it through a
:class:`~repro.api.session.Session` (which honors ``timeout`` / ``retries``
/ ``record`` exactly as a single-process campaign would), report the result
by content digest, repeat.  A background thread heartbeats the lease while
the simulation runs, so a healthy worker can hold a point for much longer
than ``lease_seconds`` — only a *dead* one forfeits it.

Workers reach the broker through one of two transports:

* :class:`LocalBrokerClient` — in-process :class:`~repro.service.broker.Broker`
  over a shared SQLite store file; results are written to the store
  directly (several worker processes on one machine, or machines mounting
  one filesystem, drain one queue this way);
* :class:`HttpBrokerClient` — the JSON API served by
  ``repro-experiments serve``; results travel in the ``complete`` request
  and the server persists them, so remote workers need no store at all.

Either way the store artifacts are keyed by content digest, so two workers
racing on a re-leased point write identical bytes and the campaign's row
digests match a single-process run bit for bit.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Tuple

LOGGER = logging.getLogger(__name__)

from ..api.campaign import Campaign, plan_fork_groups, slice_fork_groups
from ..api.scenario import Scenario
from ..api.session import ExperimentResult, ForkGroup, Session
from .broker import Broker, Lease


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

    def lease(self, worker: str, campaign: Optional[str] = None) -> Tuple[Optional[Lease], int]:
        lease = self.broker.lease(worker, campaign=campaign)
        return lease, self.broker.outstanding(campaign)

    def get_campaign(self, digest: str) -> Optional[Campaign]:
        return self.broker.campaign(digest)

    def heartbeat(
        self, lease: Lease, telemetry: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        ok = self.broker.heartbeat(
            lease.worker, lease.campaign, lease.index, telemetry=telemetry
        )
        return {"ok": ok, "control": self.broker.control_for(lease.digest)}

    def complete(
        self,
        lease: Lease,
        result: Dict[str, object],
        runs: Dict[str, Dict[str, object]],
    ) -> bool:
        # A store-attached session has usually persisted these already;
        # writing what is missing keeps storeless sessions correct too.
        self.broker.persist(lease.digest, result, runs)
        return self.broker.complete(lease.worker, lease.campaign, lease.index)

    def fail(self, lease: Lease, error: str) -> bool:
        return self.broker.fail(lease.worker, lease.campaign, lease.index, error)


class HttpBrokerClient:
    """Broker access over the ``repro-experiments serve`` JSON API."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------------------------

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error", "")
            except (ValueError, AttributeError):
                detail = ""  # the error body is not a JSON object
            raise RuntimeError(
                "%s %s failed: HTTP %d %s" % (method, path, error.code, detail)
            ) from error

    # -- broker protocol -----------------------------------------------------------------

    def submit(self, campaign_payload: Dict[str, object]) -> Dict[str, object]:
        return self.request("POST", "/api/campaigns", campaign_payload)

    def lease(self, worker: str, campaign: Optional[str] = None) -> Tuple[Optional[Lease], int]:
        payload: Dict[str, object] = {"worker": worker}
        if campaign is not None:
            payload["campaign"] = campaign
        response = self.request("POST", "/api/lease", payload)
        lease = response.get("lease")
        return (
            Lease.from_dict(lease) if lease else None,
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

    def complete(
        self,
        lease: Lease,
        result: Dict[str, object],
        runs: Dict[str, Dict[str, object]],
    ) -> bool:
        response = self.request(
            "POST",
            "/api/complete",
            {
                "worker": lease.worker,
                "campaign": lease.campaign,
                "index": lease.index,
                "digest": lease.digest,
                "result": result,
                "runs": runs,
            },
        )
        return bool(response.get("ok"))

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

    ``max_points`` bounds how many points this worker executes (the
    deterministic stand-in for killing it); ``campaign`` restricts leasing
    to one campaign digest.

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
        #: wall-clock seconds of completed point runs, for throughput stats
        self._point_walls: List[float] = []
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

    def run_point(self, lease: Lease) -> bool:
        """Execute one leased point under a heartbeat; returns success."""
        stop = threading.Event()
        interval = max(0.1, lease.lease_seconds / 3.0)

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    response = self.client.heartbeat(
                        lease, telemetry=self.telemetry_sample()
                    )
                except Exception as error:
                    # Transient broker trouble; the next beat retries.  But
                    # never silently: a worker that cannot reach its broker
                    # is about to lose the lease, and the operator should
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

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        started = time.perf_counter()
        try:
            if self.fork_prefixes and lease.prefix:
                self._fork_point(lease)
            result = self.session.run(lease.scenario)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            stop.set()
            beater.join()
            self.client.fail(lease, str(error))
            self.failed += 1
            self._log("point #%d failed: %s" % (lease.index, error))
            return False
        stop.set()
        beater.join()
        wall = time.perf_counter() - started
        accepted = self.client.complete(
            lease, result.to_dict(), run_payloads(lease.scenario, result)
        )
        if accepted:
            self._point_walls.append(wall)
            self.completed += 1
            self._log("point #%d complete (%s)" % (lease.index, lease.digest[:12]))
        else:
            # Someone else re-leased and closed it first; the store holds
            # one copy of the (identical) artifacts either way.
            self.stolen += 1
            self._log("point #%d was re-leased elsewhere" % lease.index)
        return accepted

    def run(self) -> Dict[str, int]:
        """Lease and run points until the queue is drained (or ``max_points``)."""
        while True:
            if (
                self.max_points is not None
                and self.completed + self.failed + self.stolen >= self.max_points
            ):
                self._log("max points reached; exiting")
                break
            lease, outstanding = self.client.lease(self.worker_id, self.campaign)
            if lease is None:
                if outstanding == 0:
                    self._log("queue drained; exiting")
                    break
                # Every remaining point is leased to a live worker; wait in
                # case one of those leases expires.
                time.sleep(self.poll_interval)
                continue
            self._log(
                "leased point #%d of %s (%s)"
                % (lease.index, lease.campaign[:12], lease.label)
            )
            self.run_point(lease)
        return {
            "worker": self.worker_id,
            "completed": self.completed,
            "failed": self.failed,
            "stolen": self.stolen,
        }
