"""Broker lease protocol: expiry, double-lease safety, crash re-leasing,
and digest parity between a worker fleet and the single-process runner."""

import pytest

from repro import units
from repro.api import Campaign, CampaignRunner, ResultStore, Scenario, Session
from repro.api.campaign import status_dict
from repro.api.resultset import digest_rows, export_rows
from repro.service import Broker, LocalBrokerClient, Worker
from repro.service.sqlite_store import SQLiteResultStore


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


def point_result(campaign, index):
    """A real result payload for one point: the store-side reader parses it."""
    return Session().run(campaign.expand()[index].scenario).to_dict()


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
        store.save_json("result", points[0].digest, {"cached": True})
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
        store.save_json("result", stolen.digest, {"v": 1})
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
        # ``pending`` to it: the result artifact is not there yet).
        campaign = smoke_campaign(2)
        broker.submit(campaign)
        lease = broker.lease("w1")
        broker.persist(lease.digest, point_result(campaign, lease.index), {})
        broker.complete("w1", lease.campaign, lease.index)
        broker.lease("w2")
        local = CampaignRunner(Session(store=store)).status(campaign).to_dict()
        assert [entry["state"] for entry in local["points"]] == ["complete", "pending"]
        fleet = broker.status(campaign.digest)
        assert [entry["state"] for entry in fleet["points"]] == ["complete", "leased"]

    def test_workers_listing_tracks_leases_and_counts(self, store, broker):
        broker.submit(smoke_campaign(2))
        lease = broker.lease("w1")
        store.save_json("result", lease.digest, {"v": 1})
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
        # Identities only: completion is the result artifacts.
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
        # leased point has no result yet, so it is pending to the store.
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
