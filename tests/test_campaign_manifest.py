"""The ``campaign`` artifact's contract: it records identities and failures,
is written when those change, and a manifest in the older full-state format
is read by the same rule."""

import pytest

from repro import units
from repro.api import Campaign, CampaignRunner, ResultStore, Scenario, Session
from repro.service import Broker
from repro.service.broker import Finished
from repro.service.sqlite_store import SQLiteResultStore


def day_campaign(points):
    base = Scenario(
        name="manifest test",
        base="smoke",
        sim={"duration": units.months(1)},
        seeds=(1,),
    )
    return Campaign.from_grid(
        "manifest-grid",
        base,
        {"sim.duration": [units.days(30 + day) for day in range(points)]},
    )


def counting(store_class):
    """``store_class`` with a tally of ``save_json("campaign", ...)`` calls."""

    class CountingStore(store_class):
        campaign_saves = 0

        def save_json(self, kind, digest, payload):
            if kind == "campaign":
                self.campaign_saves += 1
            return super().save_json(kind, digest, payload)

    return CountingStore


class TestWriteCounts:
    @pytest.mark.parametrize("points", [4, 16])
    def test_failure_free_run_saves_the_manifest_once(self, tmp_path, points):
        store = counting(ResultStore)(tmp_path)
        campaign = day_campaign(points)
        results = CampaignRunner(Session(store=store)).run(campaign)
        assert len(results) == points
        assert store.campaign_saves == 1
        # Nothing the manifest records changes on a finished campaign.
        CampaignRunner(Session(store=store)).run(campaign)
        assert store.campaign_saves == 1

    def test_pruned_manifest_is_written_again(self, tmp_path):
        store = counting(ResultStore)(tmp_path)
        campaign = day_campaign(2)
        runner = CampaignRunner(Session(store=store))
        runner.run(campaign)
        store.path_for("campaign", campaign.digest).unlink()
        runner.run(campaign)
        assert store.campaign_saves == 2
        assert runner.status(campaign).complete

    def test_broker_saves_at_submit_and_when_failures_change(self, tmp_path):
        store = counting(SQLiteResultStore)(tmp_path / "svc.db")
        broker = Broker(store, lease_seconds=30.0)
        campaign = day_campaign(4)
        broker.submit(campaign)
        assert store.campaign_saves == 1
        for _ in range(3):
            lease = broker.lease("w1")
            runs = {digest: {"v": 1} for _, _, digest in lease.scenario.run_keys()}
            assert broker.complete_batch([Finished.of(lease, runs)]) == [True]
        assert store.campaign_saves == 1
        lease = broker.lease("w1")
        assert broker.fail("w1", lease.campaign, lease.index, "boom")
        assert store.campaign_saves == 2
        assert broker.requeue_failed(campaign.digest) == 1
        assert store.campaign_saves == 3
        assert broker.requeue_failed(campaign.digest) == 0
        assert store.campaign_saves == 3


class TestParentFormatManifest:
    def test_full_state_manifest_is_read_by_the_same_rule(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = day_campaign(3)
        runner = CampaignRunner(Session(store=store))
        runner.run(campaign, max_points=1)
        points = campaign.expand()

        def entry(point, state, **extra):
            return dict(
                index=point.index,
                digest=point.digest,
                label=point.label,
                state=state,
                complete=state == "complete",
                **extra,
            )

        # As the previous format mirrored every state — and as stale as a
        # mirror gets: #0 has its runs, #2 has none.
        store.save_json(
            "campaign",
            campaign.digest,
            {
                "name": campaign.name,
                "exporter": campaign.exporter,
                "total": 3,
                "points": [
                    entry(points[0], "pending"),
                    entry(points[1], "failed", error="boom"),
                    entry(points[2], "complete"),
                ],
            },
        )
        payload = runner.status(campaign).to_dict()
        assert [p["state"] for p in payload["points"]] == [
            "complete",
            "failed",
            "pending",
        ]
        assert payload["points"][1]["error"] == "boom"
        assert payload["counts"] == {"complete": 1, "failed": 1, "pending": 1}
        # ... and resumed from without conversion.
        assert len(runner.resume(campaign)) == 3
        assert runner.status(campaign).complete
