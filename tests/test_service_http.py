"""HTTP service API: routing, submission, remote workers, and error paths.

Routing tests drive :meth:`ExperimentService.handle` directly (no
sockets); the end-to-end tests run a real ``ThreadingHTTPServer`` on an
ephemeral port with :class:`HttpBrokerClient` workers — including an
abandoned-lease steal over HTTP.
"""

import json
import socket
import time

import pytest

from repro import units
from repro.api import AdversarySpec, Campaign, CampaignRunner, Scenario, Session
from repro.api import scenario as scenario_module
from repro.metrics import report
from repro.metrics.report import RunMetrics
from repro.service import (
    HttpBrokerClient,
    LocalBrokerClient,
    Worker,
    make_server,
    start_server,
)
from repro.service.broker import DRAINED_EXPANSIONS, StaleCampaignError
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


class TestErrorStatuses:
    """Only a request's own fault is a 4xx: a bug under a route is a 500, so
    a worker never mistakes it for an unknown campaign or a bad request."""

    @pytest.mark.parametrize("error", [KeyError("expansion"), TypeError("bug")])
    def test_an_error_inside_complete_is_a_500(self, service, monkeypatch, error):
        service.handle("POST", "/api/campaigns", smoke_campaign(1).to_dict())
        _, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        lease = leased["leases"][0]

        def broken(finished):
            raise error

        monkeypatch.setattr(service.broker, "complete_batch", broken)
        point = {key: lease[key] for key in ("campaign", "index", "digest")}
        body = {"points": [dict(point, worker="w1", runs={})]}
        assert 'repro_swallowed_errors_total{site="http_api"}' not in service.metrics_text()
        status, payload = service.handle("POST", "/api/complete", body)
        assert status == 500
        assert payload["error"].startswith(type(error).__name__ + ": ")
        # Answered, not swallowed silently: /api/metrics counts it.
        assert 'repro_swallowed_errors_total{site="http_api"} 1\n' in service.metrics_text()

    def test_an_unknown_campaign_is_a_404(self, service):
        status, payload = service.handle("GET", "/api/campaigns/%s" % ("ab" * 32))
        assert status == 404
        assert payload["error"].startswith("unknown campaign '%s" % ("ab" * 32))

    def test_a_non_integer_limit_is_a_400(self, service):
        body = {"worker": "w1", "limit": "x"}
        status, payload = service.handle("POST", "/api/lease", body)
        assert status == 400
        assert "'x'" in payload["error"]

    def test_a_campaign_with_an_unknown_key_is_a_400(self, service):
        payload = dict(smoke_campaign(1).to_dict(), bogus=1)
        status, body = service.handle("POST", "/api/campaigns", payload)
        assert status == 400
        assert body["error"].startswith("unknown Campaign key(s) 'bogus'")


def tamper(store, digest):
    """Rewrite campaign ``digest``'s stored spec so it expands to other points;
    returns the digest the tampered spec expands to."""
    tampered = smoke_campaign(2)
    tampered.scenario.sim["duration"] = units.months(3)
    store.execute(
        "UPDATE broker_campaigns SET spec=? WHERE digest=?",
        (tampered.to_json(indent=None), digest),
    )
    return tampered.digest


class TestStaleCampaigns:
    """A stored spec that no longer expands to its campaign's digest is a
    refused request (409 naming both digests) on every route that expands
    it, never a 500 and never rows of points nobody submitted."""

    def restarted(self, service, store):
        """Submit, tamper, and return a service that did not submit it."""
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(2).to_dict()
        )
        digest = submitted["digest"]
        return ExperimentService(store, lease_seconds=10.0), digest, tamper(store, digest)

    def test_lease_answers_409(self, service, store):
        fresh, digest, rebuilt = self.restarted(service, store)
        status, payload = fresh.handle("POST", "/api/lease", {"worker": "w1"})
        assert status == 409
        assert digest in payload["error"] and rebuilt in payload["error"]
        assert fresh.broker.status(digest)["counts"]["pending"] == 2

    def test_complete_answers_409(self, service, store):
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(2).to_dict()
        )
        _, leased = service.handle("POST", "/api/lease", {"worker": "w1"})
        lease = leased["leases"][0]
        rebuilt = tamper(store, submitted["digest"])
        fresh = ExperimentService(store, lease_seconds=10.0)
        point = {key: lease[key] for key in ("campaign", "index", "digest")}
        runs = {run: {"fake": True} for _, _, run in run_keys(lease)}
        body = {"points": [dict(point, worker="w1", runs=runs)]}
        status, payload = fresh.handle("POST", "/api/complete", body)
        assert status == 409
        assert submitted["digest"] in payload["error"] and rebuilt in payload["error"]
        # The batch's transaction rolled back: nothing stored, nothing closed.
        assert not any(store.has("runs", run) for run in runs)
        assert fresh.broker.status(submitted["digest"])["counts"]["leased"] == 1

    def test_rows_answer_409(self, service, store):
        fresh, digest, rebuilt = self.restarted(service, store)
        status, payload = fresh.handle("GET", "/api/campaigns/%s/rows" % digest)
        assert status == 409
        assert digest in payload["error"] and rebuilt in payload["error"]


class TestHeldExpansions:
    """``/rows`` reads the broker's held expansion: a drained campaign is
    expanded once per process, the drained set stays within its bound, and
    what the store holds is read afresh on every request."""

    @pytest.fixture
    def drained(self, service):
        """A campaign submitted and drained through ``service``: its digest."""
        _, submitted = service.handle(
            "POST", "/api/campaigns", smoke_campaign(2).to_dict()
        )
        Worker(LocalBrokerClient(service.broker), session=Session()).run()
        return submitted["digest"]

    @staticmethod
    def count_expansions(monkeypatch):
        calls = []
        expand = Campaign.expand

        def counted(campaign):
            calls.append(campaign.name)
            return expand(campaign)

        monkeypatch.setattr(Campaign, "expand", counted)
        return calls

    def test_a_warm_rows_read_expands_nothing(
        self, service, store, drained, monkeypatch
    ):
        calls = self.count_expansions(monkeypatch)
        status, first = service.handle("GET", "/api/campaigns/%s/rows" % drained)
        assert status == 200 and calls == []
        # A restarted service expands the stored spec once, on its first read.
        fresh = ExperimentService(store, lease_seconds=10.0)
        assert fresh.handle("GET", "/api/campaigns/%s/rows" % drained) == (200, first)
        assert len(calls) == 1
        assert fresh.handle("GET", "/api/campaigns/%s/rows" % drained) == (200, first)
        assert len(calls) == 1

    def test_the_earliest_drained_expansion_is_evicted(
        self, service, store, monkeypatch
    ):
        broker = service.broker
        digests = []
        for seed in range(DRAINED_EXPANSIONS + 1):
            campaign = smoke_campaign(1, name="drained-%d" % seed)
            campaign.scenario.seeds = (seed + 1,)
            for point in campaign.expand():
                for _, _, run in point.run_keys:
                    store.save_json("runs", run, [{"fake": True}])
            # Every run is stored, so the campaign is drained at submit.
            digests.append(broker.submit(campaign)["digest"])
            if len(digests) == DRAINED_EXPANSIONS:
                broker.expansion(digests[0])  # a read does not keep it
        # One past the bound: the earliest drained campaign went.
        evicted = digests[0]
        assert list(broker._drained) == digests[1:]
        assert broker._expansions == {}

        # The evicted campaign's next read re-expands and re-checks its
        # digest: a spec tampered with behind it is refused.
        rebuilt = tamper(store, evicted)
        calls = self.count_expansions(monkeypatch)
        broker.expansion(digests[1])
        assert calls == []
        with pytest.raises(StaleCampaignError) as raised:
            broker.expansion(evicted)
        assert evicted in str(raised.value) and rebuilt in str(raised.value)
        assert len(calls) == 1
        status, _ = service.handle("GET", "/api/campaigns/%s/rows" % evicted)
        assert status == 409
        assert len(broker._drained) <= DRAINED_EXPANSIONS

    def test_a_run_deleted_behind_a_held_expansion_is_a_409(
        self, service, store, drained
    ):
        assert service.handle("GET", "/api/campaigns/%s/rows" % drained)[0] == 200
        assert drained in service.broker._drained
        run = service.broker.expansion(drained).points[1].run_keys[0][2]
        store.execute('DELETE FROM "artifact_runs" WHERE digest=?', (run,))
        status, payload = service.handle("GET", "/api/campaigns/%s/rows" % drained)
        assert status == 409
        assert "incomplete" in payload["error"] and "#1" in payload["error"]


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



class TestOneRowsRead:
    """A warm ``/rows`` of a 320-point campaign (the fleet_http shape: 40
    coverages x 8 durations, one seed, one shared baseline) reads its 321
    runs in one statement, encodes its rows once and averages nothing."""

    @pytest.fixture
    def drained(self, store, server):
        base = Scenario(
            name="one read",
            base="smoke",
            adversary=AdversarySpec("pipe_stoppage", {}),
            seeds=(1,),
        )
        campaign = Campaign.from_grid(
            "one-read",
            base,
            {
                "adversary.coverage": [round((i + 1) / 40, 4) for i in range(40)],
                "adversary.attack_duration_days": [5.0 * (j + 1) for j in range(8)],
            },
        )
        runs = {}
        for point in campaign.expand():
            for _, _, run in point.run_keys:
                runs[run] = RunMetrics(
                    0.01, 3600.0 + len(runs), 10, 1, 0, 50.0, 5.0, 86400.0,
                    {"events_processed": 100.0},
                )
        assert len(runs) == 321
        with store.transaction():
            for digest, run in runs.items():
                store.save_runs(digest, [run])
        # Every run is stored, so the campaign is drained at submit.
        return server.service.broker.submit(campaign)["digest"]

    def test_a_warm_rows_read_does_each_piece_of_work_once(
        self, store, client, drained, monkeypatch
    ):
        path = "/api/campaigns/%s/rows" % drained
        warm = client.request("GET", path)
        statements, canonical, encodings, averaged = [], [], [], []
        store._conn.set_trace_callback(statements.append)
        jsonable, dumps, built = scenario_module._jsonable, json.dumps, report.RunMetrics
        monkeypatch.setattr(
            scenario_module, "_jsonable", lambda value: canonical.append(1) or jsonable(value)
        )

        def counted_dumps(value, *args, **kwargs):
            if isinstance(value, (list, dict)):
                encodings.append(type(value))
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted_dumps)
        monkeypatch.setattr(
            report, "RunMetrics", lambda *a, **k: averaged.append(1) or built(*a, **k)
        )
        payload = client.request("GET", path)
        store._conn.set_trace_callback(None)
        assert payload == warm and len(payload["rows"]) == 320
        assert len(statements) == 1 and "IN (" in statements[0]
        assert canonical == []
        assert encodings == [list]
        assert averaged == []


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
            import json
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
            status, body = service.handle(
                "GET", "/api/campaigns/%s/rows" % submitted["digest"]
            )
            assert status == 200, body
            assert len(json.loads(body)["rows_digest"]) == 64
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
