"""Broker lease protocol: expiry, double-lease safety, crash re-leasing,
and digest parity between a worker fleet and the single-process runner."""

import pytest

from repro import units
from repro.api import (
    AdversarySpec,
    Campaign,
    CampaignRunner,
    ResultStore,
    Scenario,
    Session,
)
from repro.api.campaign import status_dict
from repro.api.resultset import digest_rows, export_rows
from repro.service import Broker, LocalBrokerClient, Worker
from repro.service.broker import Finished
from repro.service.sqlite_store import SQLiteResultStore
from repro.service.worker import run_payloads


def smoke_campaign(points=2):
    base = Scenario(
        name="broker test",
        base="smoke",
        sim={"duration": units.months(2)},
        seeds=(1,),
    )
    return Campaign.from_grid(
        "broker-smoke", base, {"sim.n_aus": list(range(1, points + 1))}
    )


def attacked_campaign(points=3):
    """Points with an adversary, each with its own baseline run."""
    base = Scenario(
        name="broker attack",
        base="smoke",
        sim={"duration": units.months(2)},
        adversary=AdversarySpec("pipe_stoppage", {"coverage": 1.0}),
        seeds=(1,),
    )
    return Campaign.from_grid(
        "broker-attack", base, {"sim.n_aus": list(range(1, points + 1))}
    )


def point_runs(campaign, index):
    """Real run payloads for one point: the store-side reader parses them."""
    scenario = campaign.expand()[index].scenario
    return run_payloads(scenario, Session().run(scenario))


def fake_runs(scenario):
    """A payload for every run the point needs: enough for the broker, which
    checks that the runs are stored, not what they say."""
    return {digest: {"v": 1} for _, _, digest in scenario.run_keys()}


def save_runs(store, scenario):
    for digest, run in fake_runs(scenario).items():
        store.save_json("runs", digest, [run])


def manifest_bytes(store, campaign):
    """The stored ``campaign`` artifact of a SQLite store, as written."""
    (payload,) = store.execute(
        'SELECT payload FROM "artifact_campaign" WHERE digest=?', (campaign.digest,)
    ).fetchone()
    return payload


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def store(tmp_path):
    return SQLiteResultStore(tmp_path / "svc.db")


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(store, clock):
    return Broker(store, lease_seconds=10.0, clock=clock)


class TestSubmit:
    def test_requires_sqlite_store(self, tmp_path):
        with pytest.raises(TypeError):
            Broker(ResultStore(tmp_path))

    def test_submit_queues_points(self, broker):
        campaign = smoke_campaign(3)
        status = broker.submit(campaign)
        assert status["total"] == 3
        assert status["counts"]["pending"] == 3
        assert status["complete"] is False
        assert [p["state"] for p in status["points"]] == ["pending"] * 3

    def test_submit_is_idempotent(self, broker):
        campaign = smoke_campaign(2)
        broker.submit(campaign)
        lease = broker.lease("w1")
        status = broker.submit(campaign)
        # Resubmission neither duplicates points nor revokes a live lease.
        assert status["total"] == 2
        assert status["counts"]["leased"] == 1
        assert broker.heartbeat("w1", lease.campaign, lease.index)

    def test_submit_marks_cached_points_complete(self, store, broker):
        campaign = smoke_campaign(2)
        points = campaign.expand()
        save_runs(store, points[0].scenario)
        status = broker.submit(campaign)
        assert status["counts"]["complete"] == 1
        assert status["counts"]["pending"] == 1

    def test_submit_builds_its_status_once(self, broker, monkeypatch):
        calls = []
        real_status = Broker.status

        def counting_status(self, *args, **kwargs):
            calls.append(args)
            return real_status(self, *args, **kwargs)

        monkeypatch.setattr(Broker, "status", counting_status)
        status = broker.submit(smoke_campaign(2))
        assert len(calls) == 1
        assert status["counts"]["pending"] == 2

    def test_resubmit_requeues_failed_points(self, broker):
        campaign = smoke_campaign(1)
        broker.submit(campaign)
        lease = broker.lease("w1")
        assert broker.fail("w1", lease.campaign, lease.index, "boom")
        status = broker.submit(campaign)
        assert status["counts"]["failed"] == 0
        assert status["counts"]["pending"] == 1


class TestLeaseProtocol:
    def test_lease_assigns_points_in_order(self, broker):
        broker.submit(smoke_campaign(2))
        first = broker.lease("w1")
        second = broker.lease("w2")
        assert (first.index, second.index) == (0, 1)
        assert broker.lease("w3") is None
        assert broker.outstanding() == 2

    def test_expired_lease_is_stolen(self, broker, clock):
        broker.submit(smoke_campaign(1))
        lease = broker.lease("w1")
        clock.advance(9.0)
        assert broker.lease("w2") is None  # still held
        clock.advance(2.0)  # past the 10s deadline
        stolen = broker.lease("w2")
        assert stolen is not None
        assert stolen.index == lease.index
        assert stolen.worker == "w2"

    def test_heartbeat_extends_the_lease(self, broker, clock):
        broker.submit(smoke_campaign(1))
        lease = broker.lease("w1")
        clock.advance(8.0)
        assert broker.heartbeat("w1", lease.campaign, lease.index)
        clock.advance(8.0)  # 16s total, but extended at 8s
        assert broker.lease("w2") is None

    def test_heartbeat_after_expiry_reports_loss(self, broker, clock):
        broker.submit(smoke_campaign(1))
        lease = broker.lease("w1")
        clock.advance(11.0)
        assert broker.heartbeat("w1", lease.campaign, lease.index) is False

    def test_stale_holder_cannot_close_a_stolen_point(self, store, broker, clock):
        broker.submit(smoke_campaign(1))
        lease = broker.lease("w1")
        clock.advance(11.0)
        stolen = broker.lease("w2")
        save_runs(store, stolen.scenario)
        # The original worker finishes late: identical digest-keyed bytes,
        # but the close is refused — w2 owns the point now.
        assert broker.complete("w1", lease.campaign, lease.index) is False
        assert broker.complete("w2", stolen.campaign, stolen.index) is True
        assert broker.status(lease.campaign)["counts"]["complete"] == 1

    def test_complete_without_result_artifact_becomes_failure(self, broker):
        broker.submit(smoke_campaign(1))
        lease = broker.lease("w1")
        assert broker.complete("w1", lease.campaign, lease.index) is False
        status = broker.status(lease.campaign)
        assert status["counts"]["failed"] == 1
        assert "without a result" in status["points"][0]["error"]

    def test_requeue_failed(self, broker):
        broker.submit(smoke_campaign(1))
        lease = broker.lease("w1")
        broker.fail("w1", lease.campaign, lease.index, "boom")
        assert broker.requeue_failed(lease.campaign) == 1
        assert broker.status(lease.campaign)["counts"]["pending"] == 1

    def test_manifest_mirrors_broker_state(self, store, broker):
        # The store-side reader sees what the broker sees (a live lease is
        # ``pending`` to it: its runs are not there yet).
        campaign = smoke_campaign(2)
        broker.submit(campaign)
        lease = broker.lease("w1")
        broker.complete_batch([Finished.of(lease, point_runs(campaign, lease.index))])
        broker.lease("w2")
        local = CampaignRunner(Session(store=store)).status(campaign).to_dict()
        assert [entry["state"] for entry in local["points"]] == ["complete", "pending"]
        fleet = broker.status(campaign.digest)
        assert [entry["state"] for entry in fleet["points"]] == ["complete", "leased"]

    def test_workers_listing_tracks_leases_and_counts(self, store, broker):
        broker.submit(smoke_campaign(2))
        lease = broker.lease("w1")
        save_runs(store, lease.scenario)
        broker.complete("w1", lease.campaign, lease.index)
        broker.lease("w1")
        (record,) = broker.workers()
        assert record["worker"] == "w1"
        assert record["completed"] == 1
        assert record["lease"]["index"] == 1


class TestStatusSchema:
    def test_broker_status_matches_status_dict_schema(self, broker):
        status = broker.submit(smoke_campaign(1))
        reference = status_dict("x", "y", 1, {"pending": 1})
        assert set(reference) <= set(status)

    def test_runner_status_to_dict_shares_the_schema(self, store, broker, tmp_path):
        campaign = smoke_campaign(1)
        broker.submit(campaign)
        payload = CampaignRunner(Session(store=store)).status(campaign).to_dict()
        assert payload["counts"] == {"complete": 0, "failed": 0, "pending": 1}
        assert payload["complete"] is False
        assert payload["points"][0]["state"] == "pending"


class TestProducerParity:
    """The runner and the broker write one manifest and one status schema."""

    def test_manifest_and_status_agree_between_fleet_and_runner(self, tmp_path):
        campaign = smoke_campaign(3)
        store = SQLiteResultStore(tmp_path / "fleet.db")
        broker = Broker(store, lease_seconds=30.0)
        broker.submit(campaign)
        Worker(LocalBrokerClient(broker), session=Session(store=store)).run()
        fleet_manifest = store.load_json("campaign", campaign.digest)
        # Identities only: completion is the stored runs.
        assert [set(p) for p in fleet_manifest["points"]] == [
            {"index", "digest", "label"}
        ] * 3
        fleet_bytes = manifest_bytes(store, campaign)

        runner = CampaignRunner(Session(store=store))
        runner.run(campaign)
        assert manifest_bytes(store, campaign) == fleet_bytes

        local = runner.status(campaign).to_dict()
        fleet = broker.status(campaign.digest)
        assert (local["digest"], local["total"]) == (fleet["digest"], fleet["total"])
        counts = dict(fleet["counts"])
        assert counts.pop("leased") == 0
        assert local["counts"] == counts

        def identity(payload):
            return [
                (p["index"], p["digest"], p["label"], p["state"])
                for p in payload["points"]
            ]

        assert identity(local) == identity(fleet)
        assert identity(local) == [
            (point.index, point.digest, point.label, "complete")
            for point in campaign.expand()
        ]

    def test_failed_point_carries_its_error_in_both_manifests(self, tmp_path, broker):
        campaign = smoke_campaign(2)
        broker.submit(campaign)
        lease = broker.lease("w1")
        broker.lease("w2")
        broker.fail("w1", lease.campaign, lease.index, "boom")
        entries = broker.store.load_json("campaign", campaign.digest)["points"]
        assert entries[0] == {
            "index": 0,
            "digest": lease.digest,
            "label": lease.label,
            "state": "failed",
            "error": "boom",
        }
        # The manifest was written while w2 held its lease: only a failure
        # is a recorded state, everything else is the point's identity.
        assert set(entries[1]) == {"index", "digest", "label"}
        # The runner reads that manifest: same state, same error; the
        # leased point has no runs yet, so it is pending to the store.
        local = CampaignRunner(Session(store=broker.store)).status(campaign).to_dict()
        assert local["points"][0]["state"] == "failed"
        assert local["points"][0]["error"] == "boom"
        assert local["points"][1]["state"] == "pending"
        assert local["counts"] == {"complete": 0, "failed": 1, "pending": 1}
        # The status endpoint shows the lease and keeps its extras.
        status = broker.status(campaign.digest)
        assert status["points"][1]["state"] == "leased"
        assert status["points"][1]["worker"] == "w2"
        assert status["points"][0]["attempts"] == 1
        assert "worker" not in status["points"][0]


class TestDigestParity:
    def test_fleet_with_killed_worker_matches_single_process(self, tmp_path):
        campaign = smoke_campaign(4)

        reference_store = ResultStore(tmp_path / "reference")
        reference = CampaignRunner(Session(store=reference_store)).run(campaign)
        reference_digest = digest_rows(export_rows(campaign.exporter, reference))

        store = SQLiteResultStore(tmp_path / "fleet.db")
        broker = Broker(store, lease_seconds=0.4)
        broker.submit(campaign)
        client = LocalBrokerClient(broker)

        # Worker 1 completes one point, then "crashes" while holding a
        # lease on the next (it leases but never heartbeats or closes).
        Worker(
            client, session=Session(store=store), worker_id="doomed", max_points=1
        ).run()
        abandoned = broker.lease("doomed")
        assert abandoned is not None

        # Worker 2 drains the rest, stealing the abandoned point once the
        # short lease expires.
        stats = Worker(
            client,
            session=Session(store=store),
            worker_id="survivor",
            poll_interval=0.05,
        ).run()
        assert stats["completed"] == 3
        assert broker.outstanding() == 0

        fleet_rows = CampaignRunner(Session(store=store)).rows(campaign)
        assert digest_rows(fleet_rows) == reference_digest


def finished(lease, runs=None):
    return Finished.of(lease, fake_runs(lease.scenario) if runs is None else runs)


def store_snapshot(store):
    """Every artifact row and every point row, as stored."""
    tables = ["artifact_%s" % kind for kind in store.kinds()] + ["broker_points"]
    return {
        table: store.execute('SELECT * FROM "%s" ORDER BY 1, 2' % table).fetchall()
        for table in tables
    }


class TestBatches:
    """Exactly-once is per point: a batch shares one request and one commit."""

    def test_grants_shrink_with_the_queue_and_the_fleet(self, broker, clock):
        broker.submit(smoke_campaign(8))
        # ceil(claimable / (2 x live workers)): 8 / 2, then 4 / 4 with two live.
        assert [l.index for l in broker.lease_batch("w1", limit=8)] == [0, 1, 2, 3]
        assert [l.index for l in broker.lease_batch("w2", limit=8)] == [4]
        assert [l.index for l in broker.lease_batch("w2", limit=1)] == [5]
        clock.advance(11.0)  # every lease expired, and nobody is live
        stolen = broker.lease_batch("w3", limit=8)
        assert [l.index for l in stolen] == [0, 1, 2, 3]
        assert {l.worker for l in stolen} == {"w3"}
        assert broker.lease_batch("w3", limit=0) == []

    def test_dead_batch_holder_is_re_leased_and_completed_once(
        self, store, broker, clock
    ):
        campaign = smoke_campaign(4)
        broker.submit(campaign)
        doomed = broker.lease_batch("doomed", limit=4)
        assert [l.index for l in doomed] == [0, 1]
        # "doomed" dies holding its batch: no beat, no complete.
        clock.advance(11.0)
        survivor = broker.lease_batch("survivor", limit=4)
        assert [l.index for l in survivor] == [0, 1]
        assert broker.complete_batch([finished(l) for l in survivor]) == [True, True]
        before = store_snapshot(store)
        # The late batch is refused point by point and writes nothing.
        late = [finished(l) for l in doomed]
        assert broker.complete_batch(late) == [False, False]
        assert store_snapshot(store) == before

        rest = broker.lease_batch("survivor", limit=4)
        assert broker.complete_batch([finished(l) for l in rest]) == [True] * len(rest)
        rest = broker.lease_batch("survivor", limit=4)
        broker.complete_batch([finished(l) for l in rest])
        status = broker.status(campaign.digest)
        assert status["counts"]["complete"] == 4
        assert [p["attempts"] for p in status["points"]] == [2, 2, 1, 1]
        completed = dict(
            store.execute("SELECT worker, completed FROM broker_workers").fetchall()
        )
        assert completed == {"doomed": 0, "survivor": 4}

    def test_a_point_without_a_result_fails_alone(self, broker):
        campaign = smoke_campaign(4)
        broker.submit(campaign)
        first, second = broker.lease_batch("w1", limit=2)
        missing = Finished.of(second, {})
        assert broker.complete_batch([finished(first), missing]) == [True, False]
        points = broker.status(campaign.digest)["points"]
        assert [p["state"] for p in points] == ["complete", "failed", "pending", "pending"]
        assert "without a result" in points[1]["error"]

    def test_a_point_missing_its_baseline_run_fails_alone(self, store, broker):
        campaign = attacked_campaign(3)
        broker.submit(campaign)
        first, second = broker.lease_batch("w1", limit=2)
        keys = second.scenario.run_keys()
        (baseline,) = [digest for _, side, digest in keys if side]
        runs = fake_runs(second.scenario)
        del runs[baseline]
        batch = [finished(first), finished(second, runs)]
        assert broker.complete_batch(batch) == [True, False]
        points = broker.status(campaign.digest)["points"]
        assert [p["state"] for p in points] == ["complete", "failed", "pending"]
        assert baseline[:12] in points[1]["error"]
        # What the point did ship is kept; the missing run is still missing.
        assert store.has("runs", keys[0][2]) and not store.has("runs", baseline)

    def test_a_point_another_campaign_stored_is_complete_and_never_leased(
        self, broker
    ):
        one = smoke_campaign(1)
        broker.submit(one)
        (lease,) = broker.lease_batch("w1", limit=1)
        assert broker.complete_batch([finished(lease)]) == [True]
        # A wider campaign shares point #0's runs, not its campaign digest.
        two = smoke_campaign(2)
        assert Campaign.digest_of(two.expand()) != Campaign.digest_of(one.expand())
        status = broker.submit(two)
        assert [p["state"] for p in status["points"]] == ["complete", "pending"]
        leases = [broker.lease("w2", campaign=two.digest) for _ in range(2)]
        assert [l.index for l in leases if l is not None] == [1]

    def test_a_late_duplicate_complete_leaves_the_store_byte_identical(
        self, store, broker
    ):
        broker.submit(smoke_campaign(2))
        (lease,) = broker.lease_batch("w1", limit=1)
        batch = [finished(lease)]
        assert broker.complete_batch(batch) == [True]
        before = store_snapshot(store)
        # The same request again (a retry after a lost response).
        assert broker.complete_batch(batch) == [False]
        assert store_snapshot(store) == before
        (record,) = broker.workers()
        assert record["completed"] == 1

    def test_heartbeat_extends_all_of_its_workers_leases_only(
        self, store, broker, clock
    ):
        broker.submit(smoke_campaign(4))
        mine = broker.lease_batch("w1", limit=2)
        (theirs,) = broker.lease_batch("w2", limit=2)
        clock.advance(8.0)
        # Beating while running point 1 keeps point 0 of the batch too.
        assert broker.heartbeat("w1", mine[1].campaign, mine[1].index)
        # Naming a point w1 does not hold answers False; its leases still extend.
        clock.advance(1.0)
        assert not broker.heartbeat("w1", theirs.campaign, theirs.index)
        expires = dict(
            store.execute(
                "SELECT idx, lease_expires FROM broker_points WHERE state='leased'"
            ).fetchall()
        )
        assert expires == {0: 19.0, 1: 19.0, 2: 10.0}
        clock.advance(2.0)  # w2's lease has expired; w1's have not
        assert [l.index for l in broker.lease_batch("w3", limit=4)] == [2]
        assert not broker.heartbeat("w2", theirs.campaign, theirs.index)

    def test_max_points_bounds_the_leases_a_worker_holds(self, store, broker):
        broker.submit(smoke_campaign(8))
        held = []

        class Watching(LocalBrokerClient):
            def lease(self, worker, campaign=None, limit=1):
                granted = super().lease(worker, campaign, limit)
                held.append(
                    store.execute(
                        "SELECT COUNT(*) FROM broker_points"
                        " WHERE worker=? AND state='leased'",
                        (worker,),
                    ).fetchone()[0]
                )
                return granted

        worker = Worker(Watching(broker), session=Session(), worker_id="w1", max_points=3)
        done = []
        real_run_batch = worker.run_batch

        def run_batch(leases):
            done.append(worker.completed + worker.failed + worker.stolen)
            real_run_batch(leases)

        worker.run_batch = run_batch
        assert worker.run()["completed"] == 3
        assert all(count <= 3 - finished for count, finished in zip(held, done))
        assert held[1] == 2  # the second request asked for exactly what was left
        counts = broker.status(smoke_campaign(8).digest)["counts"]
        assert (counts["complete"], counts["leased"], counts["pending"]) == (3, 0, 5)


class TestCommitsPerPoint:
    def test_a_drain_commits_about_twice_per_batch(self, tmp_path):
        base = Scenario(
            name="commits", base="smoke", sim={"duration": units.months(1)}, seeds=(1,)
        )
        campaign = Campaign.from_grid(
            "commits", base, {"sim.duration": [units.days(20 + d) for d in range(32)]}
        )
        store = SQLiteResultStore(tmp_path / "svc.db")
        broker = Broker(store, lease_seconds=30.0)
        broker.submit(campaign)
        counting = _CountingConnection(store._conn)
        store._conn = counting
        # Storeless, so every artifact is written by ``complete_batch`` (a
        # store-attached session commits its own run saves).
        stats = Worker(LocalBrokerClient(broker), session=Session()).run()
        assert stats["completed"] == 32
        # One commit per lease request and per complete request: 13 here.
        # A commit after every statement made it 196, about six per point.
        assert counting.commits <= 2.5 * 32, counting.commits

    def test_writes_inside_a_transaction_commit_or_roll_back_with_it(self, store):
        counting = _CountingConnection(store._conn)
        store._conn = counting
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.save_json("runs", "a" * 64, {"v": 1})
                with store.transaction() as conn:
                    conn.execute("CREATE TABLE scratch (x INTEGER)")
                assert store.has("runs", "a" * 64)
                raise RuntimeError("abort the batch")
        assert counting.commits == 0
        assert not store.has("runs", "a" * 64)
        assert "scratch" not in {
            name for (name,) in store.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            ).fetchall()
        }
        # The rolled-back table is created again on the next write.
        store.save_json("runs", "b" * 64, {"v": 2})
        assert store.load_json("runs", "b" * 64) == {"v": 2}
        assert counting.commits == 1


class _CountingConnection:
    """A ``sqlite3.Connection`` stand-in that counts ``commit()`` calls."""

    def __init__(self, connection):
        self._connection = connection
        self.commits = 0

    def commit(self):
        self.commits += 1
        return self._connection.commit()

    def __getattr__(self, name):
        return getattr(self._connection, name)


class TestWorkerTimeout:
    def test_overrun_point_is_reported_failed_with_the_budget(self, store):
        broker = Broker(store, lease_seconds=10.0)
        campaign = smoke_campaign(1)
        broker.submit(campaign)
        # A budget spent before the world is even built: the worker's
        # sliced run stops at its first deadline check.
        session = Session(workers=1, timeout=1e-9, retries=0, retry_backoff=0.0)
        stats = Worker(LocalBrokerClient(broker), session=session).run()
        assert (stats["completed"], stats["failed"]) == (0, 1)
        (point,) = broker.status(campaign.digest)["points"]
        assert point["state"] == "failed"
        assert "time budget" in point["error"]
