"""Service-side telemetry: metrics endpoint, SSE stream, dashboard gating,
run-control routes, worker throughput reporting, and the heartbeat-failure
counter."""

import json
import threading
import urllib.request

import pytest

from repro import units
from repro.api import Campaign, Scenario, Session
from repro.service import HttpBrokerClient, Worker, make_server
from repro.service.broker import Broker, Lease
from repro.service.http_api import ExperimentService
from repro.service.sqlite_store import SQLiteResultStore
from repro.service.worker import LocalBrokerClient


def smoke_campaign(points=2, name="telemetry-smoke"):
    base = Scenario(
        name="telemetry test",
        base="smoke",
        sim={"duration": units.months(2)},
        seeds=(1,),
    )
    return Campaign.from_grid(name, base, {"sim.n_aus": list(range(1, points + 1))})


@pytest.fixture
def store(tmp_path):
    return SQLiteResultStore(tmp_path / "svc.db")


@pytest.fixture
def service(store):
    return ExperimentService(store, lease_seconds=10.0)


class TestServiceBus:
    def test_submit_lease_complete_publish_progress_and_liveness(self, service):
        subscriber = service.bus.subscribe(
            topics=["campaign_progress", "worker_liveness"]
        )
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(1).to_dict()
        )
        _, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        assert leased["lease"] is not None
        events = subscriber.drain()
        topics = [event["topic"] for event in events]
        assert "campaign_progress" in topics
        assert "worker_liveness" in topics
        progress = [e for e in events if e["topic"] == "campaign_progress"]
        assert progress[0]["data"]["digest"] == submitted["digest"]
        # After the lease, the progress event reflects the leased count.
        assert progress[-1]["data"]["counts"]["leased"] == 1

    def test_requeue_publishes_progress(self, service):
        service.handle("POST", "/api/campaigns", smoke_campaign(1).to_dict())
        _, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        lease = leased["lease"]
        service.handle(
            "POST",
            "/api/fail",
            {"worker": "w1", "campaign": lease["campaign"], "index": 0, "error": "x"},
        )
        subscriber = service.bus.subscribe(topics=["campaign_progress"])
        _, requeued = service.handle(
            "POST", "/api/campaigns/%s/requeue" % lease["campaign"], {}
        )
        assert requeued["requeued"] == 1
        (event,) = subscriber.drain()
        assert event["data"]["digest"] == lease["campaign"]
        assert event["data"]["counts"]["failed"] == 0
        assert event["data"]["counts"]["pending"] == 1

    def test_heartbeat_accepts_telemetry_and_returns_control(self, service):
        service.handle("POST", "/api/campaigns", smoke_campaign(1).to_dict())
        _, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        lease = leased["lease"]
        _, beat = service.handle(
            "POST",
            "/api/heartbeat",
            {
                "worker": "w1",
                "campaign": lease["campaign"],
                "index": lease["index"],
                "digest": lease["digest"],
                "telemetry": {"points_completed": 3, "mean_point_wall_s": 0.5},
            },
        )
        assert beat["ok"] is True
        assert beat["control"] is None  # nothing requested yet
        workers = service.handle("GET", "/api/workers")[1]["workers"]
        assert workers[0]["points_completed"] == 3
        assert workers[0]["mean_point_wall_s"] == 0.5
        assert "heartbeat_age" in workers[0]

    def test_metrics_text_exposes_the_catalog(self, service):
        service.handle("POST", "/api/campaigns", smoke_campaign(1).to_dict())
        service.handle("POST", "/api/lease", {"worker": "w1"})
        text = service.metrics_text()
        assert "# TYPE repro_bus_events_total counter" in text
        assert "repro_worker_lease_latency_seconds_count 1" in text
        assert "repro_campaign_points" in text


class TestControlRoutes:
    def test_pause_step_resume_round_trip(self, service):
        digest = "ab" * 20
        status, payload = service.handle("POST", "/api/runs/%s/pause" % digest, {})
        assert status == 200
        assert payload["control"]["paused"] is True
        status, payload = service.handle(
            "POST", "/api/runs/%s/step" % digest, {"events": 500}
        )
        assert payload["control"]["steps"] == 500
        assert payload["control"]["paused"] is True
        status, payload = service.handle("POST", "/api/runs/%s/resume" % digest, {})
        assert payload["control"]["paused"] is False
        assert payload["control"]["steps"] == 0

    def test_unknown_action_is_404(self, service):
        assert service.handle("POST", "/api/runs/%s/explode" % ("ab" * 20), {})[0] == 404


class TestBrokerControls:
    def test_control_table_accumulates_steps(self, store):
        broker = Broker(store, lease_seconds=10.0)
        assert broker.control_for("x" * 40) is None
        broker.set_control("x" * 40, "step", events=100)
        broker.set_control("x" * 40, "step", events=50)
        control = broker.control_for("x" * 40)
        assert control["paused"] is True
        assert control["steps"] == 150
        broker.set_control("x" * 40, "resume")
        control = broker.control_for("x" * 40)
        assert control["paused"] is False
        assert control["steps"] == 0

    def test_unknown_action_raises(self, store):
        with pytest.raises(ValueError):
            Broker(store).set_control("x" * 40, "explode")


class _FlakyClient:
    """Heartbeat transport that fails N times, then succeeds forever."""

    def __init__(self, broker, failures):
        self.inner = LocalBrokerClient(broker)
        self.failures = failures
        self.samples = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def heartbeat(self, lease, telemetry=None):
        self.samples.append(telemetry)
        if self.failures > 0:
            self.failures -= 1
            raise OSError("broker unreachable")
        return self.inner.heartbeat(lease, telemetry=telemetry)


class TestWorkerHeartbeatFailures:
    def _lease(self, broker):
        broker.submit(smoke_campaign(1))
        return broker.lease("w1")

    def test_failed_beats_are_counted_logged_and_reset(self, store, caplog):
        import logging

        broker = Broker(store, lease_seconds=0.6)
        lease = self._lease(broker)
        client = _FlakyClient(broker, failures=2)
        worker = Worker(client, session=Session(), worker_id="w1")
        stop = threading.Event()

        # Drive the beat loop directly (run_point would finish too fast to
        # observe failures deterministically).
        with caplog.at_level(logging.WARNING, logger="repro.service.worker"):
            import time as time_module

            thread = threading.Thread(
                target=lambda: _beat_loop(worker, client, lease, stop), daemon=True
            )
            thread.start()
            deadline = time_module.time() + 10.0
            while client.failures > 0 and time_module.time() < deadline:
                time_module.sleep(0.05)
            while (
                worker.consecutive_heartbeat_failures != 0
                and time_module.time() < deadline
            ):
                time_module.sleep(0.05)
            stop.set()
            thread.join(timeout=5.0)

        assert worker.heartbeat_failures == 2
        assert worker.consecutive_heartbeat_failures == 0  # reset on success
        warnings = [r for r in caplog.records if "heartbeat" in r.getMessage()]
        assert warnings, "failed beats were swallowed silently"
        assert "consecutive failures" in warnings[0].getMessage()
        # The forwarded telemetry surfaces the failure counter.
        assert any(
            sample and "consecutive_heartbeat_failures" in sample
            for sample in client.samples
        )

    def test_telemetry_sample_shape(self):
        worker = Worker(_DummyClient(), session=Session(), worker_id="w1")
        worker.completed = 3
        worker._point_walls.extend([1.0, 3.0])
        sample = worker.telemetry_sample()
        assert sample["points_completed"] == 3
        assert sample["mean_point_wall_s"] == 2.0
        assert sample["last_point_wall_s"] == 3.0
        assert sample["consecutive_heartbeat_failures"] == 0

    def test_control_application_uses_step_deltas(self):
        worker = Worker(_DummyClient(), session=Session(), worker_id="w1")
        control = worker.session.control
        worker._apply_control({"paused": True, "steps": 5})
        assert control.paused
        assert control.stepped == 5
        worker._apply_control({"paused": True, "steps": 5})  # same row: no-op
        assert control.stepped == 5
        worker._apply_control({"paused": True, "steps": 8})
        assert control.stepped == 8
        worker._apply_control({"paused": False, "steps": 0})
        assert not control.paused
        worker._apply_control(None)  # no control row: harmless


def _beat_loop(worker, client, lease, stop):
    """The body of Worker.run_point's beat thread, extracted for testing."""
    while not stop.wait(0.05):
        try:
            response = client.heartbeat(lease, telemetry=worker.telemetry_sample())
        except Exception as error:
            worker.heartbeat_failures += 1
            worker.consecutive_heartbeat_failures += 1
            import logging

            logging.getLogger("repro.service.worker").warning(
                "worker %s: heartbeat for point #%d failed"
                " (%s; consecutive failures: %d)",
                worker.worker_id,
                lease.index,
                error,
                worker.consecutive_heartbeat_failures,
            )
            continue
        worker.consecutive_heartbeat_failures = 0
        worker._apply_control(response.get("control"))


class _DummyClient:
    def lease(self, worker, campaign=None):
        return None, 0


class TestWatchRenderer:
    def test_render_status_shares_one_layout(self):
        from repro.cli import _render_status

        payload = {
            "name": "fig2_baseline",
            "digest": "ab" * 32,
            "total": 4,
            "complete": False,
            "counts": {"complete": 2, "pending": 1, "leased": 1},
            "points": [
                {"index": 0, "state": "complete", "digest": "cd" * 32, "label": "a"},
                {"index": 1, "state": "failed", "digest": "ef" * 32, "label": "b"},
                {
                    "index": 2,
                    "state": "leased",
                    "digest": "01" * 32,
                    "label": "c",
                    "worker": "w1",
                },
            ],
        }
        rendered = _render_status(payload)
        assert "fig2_baseline: 2/4 points complete" in rendered
        assert "1 leased" in rendered
        assert ("ab" * 32)[:12] in rendered
        assert "w1" in rendered  # worker column appears when any point has one

    def test_render_status_without_points_or_workers(self):
        from repro.cli import _render_status

        payload = {
            "name": "x",
            "digest": "f" * 64,
            "total": 1,
            "complete": True,
            "counts": {"complete": 1},
            "points": [
                {"index": 0, "state": "complete", "digest": "a" * 64, "label": "p"}
            ],
        }
        rendered = _render_status(payload)
        assert "1/1 points complete" in rendered
        assert "worker" not in rendered


@pytest.fixture
def server(store):
    instance = make_server(store, port=0, lease_seconds=2.0, dashboard=True)
    threading.Thread(target=instance.serve_forever, daemon=True).start()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture
def base_url(server):
    return "http://127.0.0.1:%d" % server.server_address[1]


class TestHttpEndpoints:
    def test_metrics_endpoint_is_text(self, base_url):
        with urllib.request.urlopen(base_url + "/api/metrics", timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode()
        assert "# TYPE repro_bus_events_total counter" in body

    def test_dashboard_served_when_enabled(self, base_url):
        with urllib.request.urlopen(base_url + "/dashboard", timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/html")
            body = response.read().decode()
        assert "/api/events" in body

    def test_dashboard_404_when_disabled(self, store):
        instance = make_server(store, port=0, dashboard=False)
        threading.Thread(target=instance.serve_forever, daemon=True).start()
        url = "http://127.0.0.1:%d/dashboard" % instance.server_address[1]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=10)
            assert excinfo.value.code == 404
        finally:
            instance.shutdown()
            instance.server_close()

    def test_sse_stream_delivers_events_and_respects_limit(self, base_url, server):
        frames = []
        done = threading.Event()

        def consume():
            url = base_url + "/api/events?limit=2&topics=campaign_progress"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.headers["Content-Type"] == "text/event-stream"
                buffer = b""
                while True:
                    chunk = response.read(64)
                    if not chunk:
                        break
                    buffer += chunk
                for frame in buffer.split(b"\n\n"):
                    if frame.startswith(b"id:"):
                        frames.append(frame.decode())
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        import time as time_module

        time_module.sleep(0.3)  # let the subscription attach
        client = HttpBrokerClient(base_url)
        client.submit(smoke_campaign(1, name="sse-a").to_dict())
        client.submit(smoke_campaign(1, name="sse-b").to_dict())
        assert done.wait(timeout=20.0), "SSE stream never closed at the limit"
        assert len(frames) == 2
        for frame in frames:
            lines = dict(
                line.split(": ", 1) for line in frame.splitlines() if ": " in line
            )
            assert lines["event"] == "campaign_progress"
            payload = json.loads(lines["data"])
            assert payload["topic"] == "campaign_progress"

    def test_sse_unknown_topic_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base_url + "/api/events?topics=bogus", timeout=10)
        assert excinfo.value.code == 400

    def test_remote_worker_reports_throughput_on_completion(self, base_url):
        client = HttpBrokerClient(base_url)
        client.submit(smoke_campaign(2).to_dict())
        Worker(client, session=Session(), worker_id="tw", poll_interval=0.05).run()
        workers = client.request("GET", "/api/workers")["workers"]
        assert workers[0]["completed"] == 2
