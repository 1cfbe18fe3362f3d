"""HTTP front door for the campaign execution service.

``repro-experiments serve`` runs a stdlib :class:`ThreadingHTTPServer`
around one :class:`~repro.service.sqlite_store.SQLiteResultStore` and its
:class:`~repro.service.broker.Broker`.  The JSON API lets any process —
same machine or remote — submit campaigns, poll status, fetch exported
rows, and drive workers (``repro-experiments worker --connect``):

===========================================  ==========================================
``GET  /api/health``                         liveness + queue depth
``GET  /api/campaigns``                      submitted campaign summaries
``POST /api/campaigns``                      submit a campaign (its ``to_dict`` payload)
``GET  /api/campaigns/<digest>``             status payload (``?points=0`` for counts only)
``GET  /api/campaigns/<digest>/spec``        the submitted campaign's ``to_dict`` payload
``GET  /api/campaigns/<digest>/rows``        exported figure rows + rows digest
``POST /api/campaigns/<digest>/requeue``     failed points back to pending
``GET  /api/workers``                        worker liveness, leases, and throughput
``POST /api/lease``                          claim points  ``{"worker": ..., "limit": k}``
``POST /api/heartbeat``                      extend a worker's leases (optionally with telemetry)
``POST /api/complete``                       persist each point's runs, close its lease
``POST /api/fail``                           close the lease as failed
``POST /api/runs/<digest>/pause``            pause the run for a point digest
``POST /api/runs/<digest>/resume``           resume it
``POST /api/runs/<digest>/step``             grant N events  ``{"events": N}``
``GET  /api/metrics``                        Prometheus-style text exposition
``GET  /api/events``                         live event stream (Server-Sent Events)
``GET  /dashboard``                          static live dashboard (``--dashboard``)
===========================================  ==========================================

The last three are not JSON routes: ``/api/metrics`` is ``text/plain``,
``/api/events`` holds the connection open and writes ``text/event-stream``
frames from the service's in-process :class:`~repro.telemetry.EventBus`
(``?topics=a,b`` filters, ``?limit=N`` closes after N events — used by CI
and ``campaign status --connect``), and ``/dashboard`` serves the static
HTML page.  See docs/TELEMETRY.md for the SSE contract.

Request and response bodies are JSON objects.  Errors come back as
``{"error": ...}`` with 400 (bad request), 404 (unknown campaign/route),
or 500.  All routing lives in :meth:`ExperimentService.handle`, which is a
plain ``(method, path, body) -> (status, payload)`` function — tests drive
it without sockets, and the request handler stays a thin shell.

The server persists runs itself on ``complete`` (they travel in the
request, a batch of points at a time, written in one transaction), so HTTP
workers need no filesystem access to the store; a point is complete when
its runs are stored, and its result is derived from them.  See
docs/SERVICE.md for the lease/heartbeat contract.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..api.campaign import Campaign, CampaignRunner
from ..api.resultset import digest_rows
from ..api.session import Session
from ..telemetry import EventBus, MetricsAggregator, dashboard_html
from ..telemetry.stream import publish_campaign_progress
from .broker import Broker, Finished
from .sqlite_store import SQLiteResultStore

_DIGEST_RE = re.compile(r"^[0-9a-f]{6,64}$")

JsonResponse = Tuple[int, Dict[str, object]]


class ApiError(Exception):
    """An error with an HTTP status, rendered as ``{"error": ...}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ExperimentService:
    """The service's request dispatcher (transport-free, fully testable)."""

    def __init__(
        self,
        store: SQLiteResultStore,
        lease_seconds: float = 60.0,
        on_event: Optional[Callable[[str], None]] = None,
        dashboard: bool = False,
    ) -> None:
        self.store = store
        self.broker = Broker(store, lease_seconds=lease_seconds)
        self.on_event = on_event
        self.dashboard = dashboard
        #: the service's live telemetry: every broker-visible state change
        #: is published here, ``/api/events`` streams it, and the
        #: aggregator folds it into ``/api/metrics``.
        self.bus = EventBus()
        self.aggregator = MetricsAggregator(self.bus)
        self._lease_latency = self.aggregator.registry.histogram(
            "repro_worker_lease_latency_seconds",
            "Wall seconds a worker's lease claim spent inside the broker",
        )

    def _log(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)

    # -- telemetry -----------------------------------------------------------------------

    def metrics_text(self) -> str:
        """Current ``/api/metrics`` body (pumps the aggregator first)."""
        self.aggregator.pump()
        return self.aggregator.registry.exposition()

    def _publish_progress(self, digest: str) -> None:
        if not self.bus.has_subscribers("campaign_progress"):
            return
        try:
            status = self.broker.status(digest, include_points=False)
        except KeyError:
            return
        publish_campaign_progress(self.bus, status)

    def _publish_worker(
        self, worker: str, event: str, telemetry: Optional[Dict[str, object]] = None
    ) -> None:
        payload: Dict[str, object] = {"worker": worker, "event": event}
        if isinstance(telemetry, dict):
            payload["telemetry"] = telemetry
        self.bus.publish("worker_liveness", payload)

    # -- dispatch ------------------------------------------------------------------------

    def handle(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> JsonResponse:
        """Route one request; returns ``(status, payload)``."""
        parsed = urlparse(path)
        query = parse_qs(parsed.query)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            return self._route(method.upper(), parts, query, body or {})
        except ApiError as error:
            return error.status, {"error": str(error)}
        except KeyError as error:
            return 404, {"error": str(error).strip("'\"")}
        except (TypeError, ValueError) as error:
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - the server must answer
            return 500, {"error": "%s: %s" % (type(error).__name__, error)}

    def _route(
        self,
        method: str,
        parts: list,
        query: Dict[str, list],
        body: Dict[str, object],
    ) -> JsonResponse:
        if parts[:1] != ["api"]:
            raise ApiError(404, "unknown route")
        route = parts[1:]

        if route == ["health"] and method == "GET":
            return 200, {
                "ok": True,
                "store": str(self.store.path),
                "campaigns": len(self.broker.campaigns()),
                "outstanding": self.broker.outstanding(),
            }

        if route == ["campaigns"]:
            if method == "GET":
                return 200, {"campaigns": self.broker.campaigns()}
            if method == "POST":
                try:
                    campaign = Campaign.from_dict(body)
                except KeyError as error:
                    raise ApiError(400, "malformed campaign: missing %s" % error)
                status = self.broker.submit(campaign)
                self._log(
                    "submitted %s (%s): %d points"
                    % (campaign.name, str(status["digest"])[:12], status["total"])
                )
                publish_campaign_progress(self.bus, status)
                return 200, status

        if len(route) >= 2 and route[0] == "campaigns":
            digest = self._digest(route[1])
            rest = route[2:]
            if not rest and method == "GET":
                include_points = query.get("points", ["1"])[0] not in ("0", "false")
                return 200, self.broker.status(digest, include_points=include_points)
            if rest == ["spec"] and method == "GET":
                campaign = self.broker.campaign(digest)
                if campaign is None:
                    raise ApiError(404, "unknown campaign %r" % digest)
                return 200, {"digest": digest, "campaign": campaign.to_dict()}
            if rest == ["rows"] and method == "GET":
                return 200, self._rows(digest)
            if rest == ["requeue"] and method == "POST":
                requeued = self.broker.requeue_failed(digest)
                self._publish_progress(digest)
                return 200, {"requeued": requeued}

        if route == ["workers"] and method == "GET":
            return 200, {"workers": self.broker.workers()}

        if route == ["lease"] and method == "POST":
            worker = self._field(body, "worker")
            limit = int(body.get("limit", 1))
            if limit < 1:
                raise ApiError(400, "limit must be at least 1")
            started = time.perf_counter()
            leases = self.broker.lease_batch(
                worker, campaign=body.get("campaign"), limit=limit
            )
            self._lease_latency.observe(time.perf_counter() - started)
            self._publish_worker(worker, "lease")
            for campaign in dict.fromkeys(lease.campaign for lease in leases):
                self._publish_progress(campaign)
            return 200, {
                "leases": [lease.to_dict() for lease in leases],
                "outstanding": self.broker.outstanding(body.get("campaign")),
            }

        if route == ["heartbeat"] and method == "POST":
            worker = self._field(body, "worker")
            telemetry = body.get("telemetry")
            if telemetry is not None and not isinstance(telemetry, dict):
                raise ApiError(400, "telemetry must be a JSON object")
            ok = self.broker.heartbeat(
                worker,
                self._field(body, "campaign"),
                int(self._field(body, "index")),
                telemetry=telemetry,
            )
            self._publish_worker(worker, "heartbeat", telemetry)
            response: Dict[str, object] = {"ok": ok}
            digest = body.get("digest")
            if digest:
                response["control"] = self.broker.control_for(str(digest))
            return 200, response

        if route == ["complete"] and method == "POST":
            finished = self._finished(body)
            accepted = self.broker.complete_batch(finished)
            for worker in dict.fromkeys(point.worker for point in finished):
                self._publish_worker(worker, "complete")
            for campaign in dict.fromkeys(point.campaign for point in finished):
                self._publish_progress(campaign)
            return 200, {"accepted": accepted}

        if route == ["fail"] and method == "POST":
            ok = self.broker.fail(
                self._field(body, "worker"),
                self._field(body, "campaign"),
                int(self._field(body, "index")),
                str(body.get("error") or "worker reported failure"),
            )
            self._publish_worker(self._field(body, "worker"), "fail")
            self._publish_progress(self._field(body, "campaign"))
            return 200, {"ok": ok}

        if len(route) == 3 and route[0] == "runs" and method == "POST":
            return 200, self._control(self._digest(route[1]), route[2], body)

        raise ApiError(404, "unknown route")

    def _control(
        self, digest: str, action: str, body: Dict[str, object]
    ) -> Dict[str, object]:
        """Pause/resume/step the run for a point digest.

        The service runs no simulation itself, so the request goes where
        the runs are: the broker's control table carries it to the fleet
        worker holding the point, in that worker's next heartbeat response.
        """
        if action not in ("pause", "resume", "step"):
            raise ApiError(404, "unknown run action %r" % action)
        events = int(body.get("events", 1) or 1)
        control = self.broker.set_control(digest, action, events=events)
        return {"digest": digest, "action": action, "control": control}

    # -- handlers ------------------------------------------------------------------------

    def _finished(self, body: Dict[str, object]) -> List[Finished]:
        """The ``points`` of a ``complete`` request, checked field by field.

        Each point is closed only for its current lease holder; the broker
        persists the shipped artifacts first.
        """
        points = body.get("points")
        if not isinstance(points, list) or not all(
            isinstance(point, dict) for point in points
        ):
            raise ApiError(400, "points must be a list of finished-point objects")
        finished = []
        for point in points:
            runs = point.get("runs") or {}
            if not isinstance(runs, dict):
                raise ApiError(400, "runs must map run digests to run payloads")
            finished.append(
                Finished(
                    worker=self._field(point, "worker"),
                    campaign=self._field(point, "campaign"),
                    index=int(self._field(point, "index")),
                    digest=self._field(point, "digest"),
                    runs=runs,
                )
            )
        return finished

    def _rows(self, digest: str) -> Dict[str, object]:
        campaign = self.broker.campaign(digest)
        if campaign is None:
            raise ApiError(404, "unknown campaign %r" % digest)
        runner = CampaignRunner(Session(store=self.store))
        try:
            rows = runner.rows(campaign)
        except LookupError as error:
            raise ApiError(409, str(error))
        return {
            "digest": digest,
            "exporter": campaign.exporter,
            "rows": rows,
            "rows_digest": digest_rows(rows),
        }

    # -- validation ----------------------------------------------------------------------

    @staticmethod
    def _field(body: Dict[str, object], name: str) -> str:
        value = body.get(name)
        if value is None or value == "":
            raise ApiError(400, "missing required field %r" % name)
        return value if isinstance(value, (int, float)) else str(value)

    @staticmethod
    def _digest(value: str) -> str:
        if not _DIGEST_RE.match(value):
            raise ApiError(400, "malformed campaign digest %r" % value)
        return value


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shell around :meth:`ExperimentService.handle`."""

    server_version = "repro-experiments/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; on a keep-alive connection
    # Nagle's algorithm holds the body until the client's delayed ACK
    # (~40 ms per request) unless TCP_NODELAY is set.
    disable_nagle_algorithm = True

    def _respond(self, body: Optional[Dict[str, object]]) -> None:
        status, payload = self.server.service.handle(  # type: ignore[attr-defined]
            self.command, self.path, body
        )
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _respond_raw(self, status: int, content_type: str, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urlparse(self.path)
        service = self.server.service  # type: ignore[attr-defined]
        if parsed.path == "/api/metrics":
            self._respond_raw(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                service.metrics_text().encode("utf-8"),
            )
            return
        if parsed.path == "/api/events":
            self._stream_events(service, parse_qs(parsed.query))
            return
        if parsed.path in ("/dashboard", "/dashboard/"):
            if not service.dashboard:
                self._respond_raw(
                    404,
                    "application/json",
                    b'{"error": "dashboard disabled; restart serve with --dashboard"}',
                )
            else:
                self._respond_raw(
                    200,
                    "text/html; charset=utf-8",
                    dashboard_html().encode("utf-8"),
                )
            return
        self._respond(None)

    def _stream_events(self, service: ExperimentService, query: Dict[str, list]) -> None:
        """``GET /api/events``: Server-Sent Events from the service bus.

        The connection stays open (``Connection: close``, no
        Content-Length) and each bus event becomes one ``id``/``event``/
        ``data`` frame; a comment keepalive goes out during quiet spells so
        proxies and clients see a live stream.  ``?limit=N`` ends the
        stream after N events (tests and CI), ``?topics=a,b`` subscribes to
        a subset.
        """
        topics_raw = query.get("topics", [""])[0]
        topic_list = [t for t in topics_raw.split(",") if t] or None
        try:
            limit = int(query.get("limit", ["0"])[0] or 0)
        except ValueError:
            limit = 0
        try:
            subscription = service.bus.subscribe(topics=topic_list)
        except ValueError as error:
            data = json.dumps({"error": str(error)}).encode("utf-8")
            self._respond_raw(400, "application/json", data)
            return
        self.close_connection = True
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(b": stream open\n\n")
            self.wfile.flush()
            sent = 0
            quiet = 0.0
            while True:
                events = subscription.drain()
                if not events:
                    time.sleep(0.2)
                    quiet += 0.2
                    if quiet >= 10.0:
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        quiet = 0.0
                    continue
                quiet = 0.0
                for event in events:
                    frame = "id: %d\nevent: %s\ndata: %s\n\n" % (
                        event["seq"],
                        event["topic"],
                        json.dumps(event, sort_keys=True),
                    )
                    self.wfile.write(frame.encode("utf-8"))
                    sent += 1
                    if limit and sent >= limit:
                        self.wfile.flush()
                        return
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; normal end of an SSE stream
        finally:
            subscription.close()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as error:
            data = json.dumps({"error": str(error)}).encode("utf-8")
            self.send_response(400)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        self._respond(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        service = getattr(self.server, "service", None)
        if service is not None and service.on_event is not None:
            service.on_event(
                "%s - %s" % (self.address_string(), format % args)
            )


def make_server(
    store: SQLiteResultStore,
    host: str = "127.0.0.1",
    port: int = 8642,
    lease_seconds: float = 60.0,
    on_event: Optional[Callable[[str], None]] = None,
    dashboard: bool = False,
) -> ThreadingHTTPServer:
    """Build (but do not start) the service's HTTP server.

    The returned server carries its :class:`ExperimentService` as
    ``server.service``; call ``serve_forever()`` to run it, or start it on
    a daemon thread with :func:`start_server` (tests do the latter).
    ``dashboard`` enables the static ``/dashboard`` page.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = ExperimentService(  # type: ignore[attr-defined]
        store, lease_seconds=lease_seconds, on_event=on_event, dashboard=dashboard
    )
    return server


def start_server(server: ThreadingHTTPServer) -> threading.Thread:
    """Run ``server`` on a daemon thread; returns the thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
