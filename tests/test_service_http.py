"""HTTP service API: routing, submission, remote workers, and error paths.

Routing tests drive :meth:`ExperimentService.handle` directly (no
sockets); the end-to-end tests run a real ``ThreadingHTTPServer`` on an
ephemeral port with :class:`HttpBrokerClient` workers — including an
abandoned-lease steal over HTTP.
"""

import socket
import time

import pytest

from repro import units
from repro.api import Campaign, CampaignRunner, Scenario, Session
from repro.service import HttpBrokerClient, Worker, make_server, start_server
from repro.service.http_api import ExperimentService
from repro.service.sqlite_store import SQLiteResultStore


def smoke_campaign(points=2, name="http-smoke"):
    base = Scenario(
        name="http test",
        base="smoke",
        sim={"duration": units.months(2)},
        seeds=(1,),
    )
    return Campaign.from_grid(name, base, {"sim.n_aus": list(range(1, points + 1))})


def run_keys(lease):
    """The run keys of a leased point, from the scenario the lease carries."""
    return Scenario.from_dict(lease["scenario"]).run_keys()


@pytest.fixture
def store(tmp_path):
    return SQLiteResultStore(tmp_path / "svc.db")


@pytest.fixture
def service(store):
    return ExperimentService(store, lease_seconds=10.0)


class TestRouting:
    def test_health(self, service):
        status, payload = service.handle("GET", "/api/health")
        assert status == 200
        assert payload["ok"] is True
        assert payload["outstanding"] == 0

    def test_submit_and_status(self, service):
        status, payload = service.handle(
            "POST", "/api/campaigns", smoke_campaign().to_dict()
        )
        assert status == 200
        digest = payload["digest"]
        assert payload["counts"]["pending"] == 2

        status, listing = service.handle("GET", "/api/campaigns")
        assert [c["digest"] for c in listing["campaigns"]] == [digest]

        status, detail = service.handle("GET", "/api/campaigns/%s" % digest)
        assert status == 200
        assert len(detail["points"]) == 2

        status, slim = service.handle(
            "GET", "/api/campaigns/%s?points=0" % digest
        )
        assert status == 200
        assert slim["points"] == []

    def test_lease_heartbeat_fail_cycle(self, service):
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(1).to_dict()
        )
        status, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        assert status == 200
        lease = leased["leases"][0]
        assert lease["index"] == 0
        assert leased["outstanding"] == 1

        status, beat = service.handle(
            "POST",
            "/api/heartbeat",
            {"worker": "w1", "campaign": lease["campaign"], "index": 0},
        )
        assert beat["ok"] is True

        status, failed = service.handle(
            "POST",
            "/api/fail",
            {"worker": "w1", "campaign": lease["campaign"], "index": 0, "error": "x"},
        )
        assert failed["ok"] is True

        status, requeued = service.handle(
            "POST", "/api/campaigns/%s/requeue" % lease["campaign"], {}
        )
        assert requeued["requeued"] == 1

    def test_complete_persists_shipped_artifacts(self, service, store):
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(1).to_dict()
        )
        _, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        lease = leased["leases"][0]
        ((_, _, run),) = run_keys(lease)
        status, done = service.handle(
            "POST",
            "/api/complete",
            {
                "points": [
                    {
                        "worker": "w1",
                        "campaign": lease["campaign"],
                        "index": lease["index"],
                        "digest": lease["digest"],
                        "runs": {run: {"fake_run": True}},
                    }
                ]
            },
        )
        assert done["accepted"] == [True]
        assert store.load_json("runs", run) == [{"fake_run": True}]
        # The runs are the point: no result artifact is written.
        assert store.kinds() == ["campaign", "runs"]

    def test_lease_and_complete_take_batches(self, service, store):
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(3).to_dict()
        )
        # One worker, three claimable points: at most ceil(3 / 2) = 2.
        status, leased = service.handle(
            "POST", "/api/lease", {"worker": "w1", "limit": 5}
        )
        assert status == 200
        assert [lease["index"] for lease in leased["leases"]] == [0, 1]
        assert leased["outstanding"] == 3
        points = [
            {
                "worker": "w1",
                "campaign": lease["campaign"],
                "index": lease["index"],
                "digest": lease["digest"],
                "runs": {run: {"fake": lease["index"]} for _, _, run in run_keys(lease)},
            }
            for lease in leased["leases"]
        ]
        points[1]["runs"] = {}  # nothing to persist: that point fails
        _, done = service.handle("POST", "/api/complete", {"points": points})
        assert done["accepted"] == [True, False]
        counts = service.broker.status(submitted["digest"])["counts"]
        assert (counts["complete"], counts["failed"], counts["pending"]) == (1, 1, 1)

    def test_malformed_batches_are_400(self, service):
        for body in ({"worker": "w1", "limit": 0}, {"worker": "w1", "limit": "x"}):
            assert service.handle("POST", "/api/lease", body)[0] == 400
        for body in (
            {},
            {"points": {"worker": "w1"}},
            {"points": ["w1"]},
            {"points": [{"worker": "w1", "campaign": "c", "index": 0}]},
            {"points": [{"worker": "w1", "campaign": "c", "index": 0,
                         "digest": "d", "runs": [1]}]},
        ):
            assert service.handle("POST", "/api/complete", body)[0] == 400, body

    def test_error_paths(self, service):
        assert service.handle("GET", "/nope")[0] == 404
        assert service.handle("GET", "/api/nope")[0] == 404
        assert service.handle("POST", "/api/lease", {})[0] == 400  # no worker
        assert service.handle("GET", "/api/campaigns/NOT-A-DIGEST")[0] == 400
        assert service.handle("GET", "/api/campaigns/%s" % ("ab" * 32))[0] == 404
        # Rows for a submitted-but-unrun campaign: incomplete, not a crash.
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(1).to_dict()
        )
        status, payload = service.handle(
            "GET", "/api/campaigns/%s/rows" % submitted["digest"]
        )
        assert status == 409
        assert "incomplete" in payload["error"]

    def test_malformed_submit_is_a_400_not_a_404(self, service):
        # A missing body key is a bad request, not an unknown resource.
        assert service.handle("POST", "/api/campaigns", {}) == (
            400,
            {"error": "malformed campaign: missing 'scenario'"},
        )
        kindless = smoke_campaign(1).to_dict()
        kindless["scenario"]["adversary"] = {"params": {"coverage": 0.4}}
        assert service.handle("POST", "/api/campaigns", kindless) == (
            400,
            {"error": "malformed campaign: missing 'kind'"},
        )
        # Unknown campaign digests keep their 404.
        status, _ = service.handle("GET", "/api/campaigns/%s/spec" % ("cd" * 32))
        assert status == 404
        assert service.handle("GET", "/api/campaigns")[1] == {"campaigns": []}

    def test_invalid_override_is_rejected_at_submit(self, service):
        # Digesting a point resolves (and so validates) its configs: a bad
        # override fails the submit, before any point is queued.
        bad = Campaign.from_grid(
            "bad", smoke_campaign(1).scenario, {"protocol.quorum": [0]}
        )
        assert service.handle("POST", "/api/campaigns", bad.to_dict()) == (
            400,
            {"error": "quorum must be at least 1"},
        )
        assert service.handle("GET", "/api/health")[1]["campaigns"] == 0


@pytest.fixture
def server(store):
    instance = make_server(store, port=0, lease_seconds=2.0)
    import threading

    threading.Thread(target=instance.serve_forever, daemon=True).start()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture
def client(server):
    return HttpBrokerClient("http://127.0.0.1:%d" % server.server_address[1])


class TestEndToEnd:
    def test_remote_worker_drains_the_queue(self, store, client):
        campaign = smoke_campaign(2)
        submitted = client.submit(campaign.to_dict())
        digest = submitted["digest"]

        stats = Worker(
            client, session=Session(), worker_id="remote", poll_interval=0.05
        ).run()
        assert stats["completed"] == 2
        assert stats["failed"] == 0

        final = client.request("GET", "/api/campaigns/%s?points=0" % digest)
        assert final["complete"] is True

        # The server persisted the shipped artifacts: a store-side runner
        # reproduces the rows (and their digest) from them.
        rows_payload = client.request("GET", "/api/campaigns/%s/rows" % digest)
        local_rows = CampaignRunner(Session(store=store)).rows(campaign)
        assert rows_payload["rows"] == local_rows

        workers = client.request("GET", "/api/workers")["workers"]
        assert workers[0]["worker"] == "remote"
        assert workers[0]["completed"] == 2

    def test_abandoned_lease_is_stolen_over_http(self, client):
        campaign = smoke_campaign(1)
        client.submit(campaign.to_dict())

        # A "crashed" worker: leases the only point and never comes back.
        abandoned, outstanding = client.lease("ghost", limit=4)
        assert [lease.index for lease in abandoned] == [0]
        assert abandoned.digest == abandoned[0].digest
        assert outstanding == 1

        # A live worker polls until the 2s lease expires, then finishes it.
        stats = Worker(
            client, session=Session(), worker_id="live", poll_interval=0.1
        ).run()
        assert stats["completed"] == 1



class TestRemoteBeatAndFail:
    """The two calls a remote worker makes only when a point is slow or
    broken: ``heartbeat`` and ``fail``, over a real server."""

    @pytest.fixture
    def short_lease_client(self, store):
        # A 0.3 s lease: the worker beats every 0.1 s.
        instance = make_server(store, port=0, lease_seconds=0.3)
        import threading

        threading.Thread(target=instance.serve_forever, daemon=True).start()
        yield HttpBrokerClient("http://127.0.0.1:%d" % instance.server_address[1])
        instance.shutdown()
        instance.server_close()

    def test_a_point_that_outlives_its_lease_is_kept_alive(
        self, short_lease_client, monkeypatch
    ):
        client = short_lease_client
        client.submit(smoke_campaign(1).to_dict())
        seen = []
        run = Session.run

        def slow_run(session, scenario, *args, **kwargs):
            time.sleep(0.6)  # two lease lengths
            seen.extend(client.request("GET", "/api/workers")["workers"])
            return run(session, scenario, *args, **kwargs)

        monkeypatch.setattr(Session, "run", slow_run)
        stats = Worker(client, session=Session(), worker_id="slow").run()
        assert (stats["completed"], stats["stolen"], stats["failed"]) == (1, 0, 0)
        (row,) = seen
        # Unextended, the lease would have expired 0.3 s ago.
        assert row["lease"]["expires_in"] > 0
        # The beat carried the worker's telemetry, and the broker kept it.
        assert row["points_completed"] == 0
        assert row["consecutive_heartbeat_failures"] == 0

    def test_a_point_that_raises_reaches_the_broker_as_failed(
        self, client, monkeypatch
    ):
        digest = client.submit(smoke_campaign(1).to_dict())["digest"]

        def broken_run(session, scenario, *args, **kwargs):
            raise RuntimeError("the point blew up")

        monkeypatch.setattr(Session, "run", broken_run)
        stats = Worker(client, session=Session(), worker_id="broken").run()
        assert (stats["completed"], stats["failed"]) == (0, 1)
        (point,) = client.request("GET", "/api/campaigns/%s" % digest)["points"]
        assert point["state"] == "failed"
        assert "the point blew up" in point["error"]


class TestKeepAlive:
    def test_sequential_requests_share_one_fast_connection(self, store):
        # http.server writes a response's headers and body separately: on a
        # kept-alive connection without TCP_NODELAY the body waits for the
        # client's delayed ACK, ~40 ms a request (>= 2 s for these 50).
        server = make_server(store, port=0)
        start_server(server)
        try:
            client = HttpBrokerClient("http://127.0.0.1:%d" % server.server_address[1])
            client.request("GET", "/api/health")
            connection = client._connection()
            started = time.perf_counter()
            for _ in range(50):
                assert client.request("GET", "/api/health")["ok"] is True
            elapsed = time.perf_counter() - started
            assert client._connection() is connection
            assert connection.sock is not None  # still open: kept alive
        finally:
            server.shutdown()
            server.server_close()
        assert elapsed < 1.0, "50 keep-alive requests took %.2f s" % elapsed

    def test_a_closed_keep_alive_connection_is_replaced(self, store):
        server = make_server(store, port=0)
        start_server(server)
        try:
            client = HttpBrokerClient("http://127.0.0.1:%d" % server.server_address[1])
            client.request("GET", "/api/health")
            # The server side of the idle connection goes away (a restart).
            client._connection().sock.shutdown(socket.SHUT_RD)
            assert client.request("GET", "/api/health")["ok"] is True
        finally:
            server.shutdown()
            server.server_close()

    def test_error_status_keeps_its_message(self, client):
        with pytest.raises(RuntimeError, match="HTTP 404 unknown route"):
            client.request("GET", "/api/nope")
        assert client.request("GET", "/api/health")["ok"] is True


class TestLayering:
    def test_serving_rows_does_not_import_the_bench_harness(self, tmp_path):
        # The row digest lives beside export_rows in repro.api.resultset; the
        # service must not pull the benchmark harness in to compute it.  Checked
        # in a fresh interpreter: the pytest process imported bench long ago.
        import os
        import subprocess
        import sys
        import textwrap

        import repro

        script = textwrap.dedent(
            """
            import sys

            from repro import units
            from repro.api import Campaign, Scenario, Session
            from repro.service.http_api import ExperimentService
            from repro.service.sqlite_store import SQLiteResultStore
            from repro.service.worker import LocalBrokerClient, Worker

            assert "repro.experiments.bench" not in sys.modules
            store = SQLiteResultStore(sys.argv[1])
            service = ExperimentService(store)
            base = Scenario(
                name="layering", base="smoke", sim={"duration": units.months(1)}, seeds=(1,)
            )
            campaign = Campaign.from_grid("layering", base, {"sim.n_aus": [1]})
            _, submitted = service.handle("POST", "/api/campaigns", campaign.to_dict())
            Worker(LocalBrokerClient(service.broker), session=Session(store=store)).run()
            status, payload = service.handle(
                "GET", "/api/campaigns/%s/rows" % submitted["digest"]
            )
            assert status == 200, payload
            assert len(payload["rows_digest"]) == 64
            assert "repro.experiments.bench" not in sys.modules, "bench was imported"
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        inherited = os.environ.get("PYTHONPATH")
        path = src + (os.pathsep + inherited if inherited else "")
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "layering.db")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
