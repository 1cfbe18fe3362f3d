"""Tests for declarative campaigns: expansion, round-trip, resumable runs."""

import json

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
from repro.api.campaign import campaign_rows, run_campaign
from repro.api.resultset import digest_rows


def point_scenario(**overrides):
    fields = dict(
        name="campaign test",
        base="smoke",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 45.0, "coverage": 1.0, "recuperation_days": 15.0},
        ),
        seeds=(1,),
    )
    fields.update(overrides)
    return Scenario(**fields)


def grid_campaign(**campaign_kwargs):
    return Campaign.from_grid(
        "grid",
        point_scenario(),
        {
            "adversary.coverage": [0.4, 1.0],
            "adversary.attack_duration_days": [30.0, 60.0],
        },
        **campaign_kwargs,
    )


class TestExpansion:
    def test_cartesian_order_first_axis_outermost(self):
        points = grid_campaign().expand()
        assert len(points) == 4
        assert [p.parameters["coverage"] for p in points] == [0.4, 0.4, 1.0, 1.0]
        assert [p.parameters["attack_duration_days"] for p in points] == [
            30.0,
            60.0,
            30.0,
            60.0,
        ]

    def test_zip_axis_advances_targets_in_lockstep(self):
        campaign = Campaign(name="zip", scenario=point_scenario(adversary=None))
        campaign.add_axis(
            **{
                "protocol.poll_interval": [units.months(2), units.months(3)],
                "params.poll_interval_months": [2.0, 3.0],
            }
        )
        points = campaign.expand()
        assert len(points) == 2
        for point, months in zip(points, (2.0, 3.0)):
            assert point.parameters["poll_interval_months"] == months
            protocol, _ = point.scenario.resolve()
            assert protocol.poll_interval == units.months(months)

    def test_zip_axis_length_mismatch_is_rejected(self):
        campaign = Campaign(name="bad", scenario=point_scenario())
        with pytest.raises(ValueError):
            campaign.add_axis(
                **{"adversary.coverage": [0.4, 1.0], "params.label": ["just one"]}
            )

    def test_invalid_target_scope_is_rejected(self):
        campaign = Campaign(name="bad", scenario=point_scenario())
        with pytest.raises(ValueError):
            campaign.add_axis(**{"bogus.field": [1, 2]})

    def test_adversary_axis_without_adversary_is_rejected(self):
        campaign = Campaign(name="bad", scenario=point_scenario(adversary=None))
        campaign.add_axis(**{"adversary.coverage": [1.0]})
        with pytest.raises(ValueError):
            campaign.expand()

    def test_sweep_scenario_base_is_rejected(self):
        # The grid belongs in the campaign's axes, not in its scenario.
        sweep = dict(point_scenario().to_dict(), sweep={"adversary.coverage": [0.4]})
        with pytest.raises(ValueError, match="axes"):
            Campaign.from_dict({"name": "bad", "scenario": sweep})

    def test_len_counts_grid_points_without_expanding(self):
        assert len(grid_campaign()) == 4

    def test_expansion_does_not_mutate_the_base_scenario(self):
        campaign = grid_campaign()
        before = campaign.scenario.adversary.params.copy()
        campaign.expand()
        campaign.expand()
        assert campaign.scenario.adversary.params == before


class TestIdentity:
    def test_digest_is_spelling_independent(self):
        # Another name, the axes added one by one: the same points.
        campaign = Campaign(name="spelled out", scenario=point_scenario())
        campaign.add_axis(**{"adversary.coverage": [0.4, 1.0]})
        campaign.add_axis(**{"adversary.attack_duration_days": [30.0, 60.0]})
        assert campaign.digest == grid_campaign().digest

    def test_digest_changes_with_axis_order(self):
        flipped = Campaign.from_grid(
            "flipped",
            point_scenario(),
            {
                "adversary.attack_duration_days": [30.0, 60.0],
                "adversary.coverage": [0.4, 1.0],
            },
        )
        assert flipped.digest != grid_campaign().digest

    def test_json_round_trip_preserves_digest_and_axes(self, tmp_path):
        campaign = grid_campaign(exporter="attack_sweep", description="round trip")
        path = campaign.save(tmp_path / "campaign.json")
        restored = Campaign.load(path)
        assert restored.digest == campaign.digest
        assert restored.axes == campaign.axes
        assert restored.exporter == "attack_sweep"
        assert restored.description == "round trip"
        # The artifact is honest JSON with ordered axes.
        payload = json.loads(path.read_text())
        assert [list(axis) for axis in payload["axes"]] == [
            ["adversary.coverage"],
            ["adversary.attack_duration_days"],
        ]


class TestRunner:
    def test_run_without_store_runs_everything(self):
        results = CampaignRunner(Session()).run(grid_campaign())
        assert len(results) == 4
        assert [p.index for p in results] == [0, 1, 2, 3]

    def test_status_counts_store_state(self, tmp_path):
        campaign = grid_campaign()
        runner = CampaignRunner(Session(store=ResultStore(tmp_path)))
        before = runner.status(campaign)
        assert before.total == 4 and not before.completed
        runner.run(campaign, max_points=3)
        after = runner.status(campaign)
        assert len(after.completed) == 3
        assert [point.index for point in after.pending] == [3]
        assert not after.complete

    def test_killed_campaign_resumes_to_identical_digests(self, tmp_path):
        campaign = grid_campaign(exporter="attack_sweep")

        # Uninterrupted reference run (fresh store).
        reference_runner = CampaignRunner(
            Session(store=ResultStore(tmp_path / "reference"))
        )
        reference_runner.run(campaign)
        reference_digest = digest_rows(reference_runner.rows(campaign))

        # Simulated kill after 2 points, then resume with a *new* runner
        # (fresh session, fresh in-memory cache) against the same store.
        store_dir = tmp_path / "killed"
        CampaignRunner(Session(store=ResultStore(store_dir))).run(
            campaign, max_points=2
        )
        resumed_runner = CampaignRunner(Session(store=ResultStore(store_dir)))
        resumed = resumed_runner.run(campaign)
        assert len(resumed) == 4
        assert resumed_runner.status(campaign).complete
        assert digest_rows(resumed_runner.rows(campaign)) == reference_digest

    def test_resumed_points_are_loaded_not_recomputed(self, tmp_path, monkeypatch):
        from repro.api import session as session_module

        campaign = grid_campaign()
        store = ResultStore(tmp_path)
        CampaignRunner(Session(store=store)).run(campaign)
        # Resuming a complete campaign must touch no simulation at all.
        monkeypatch.setattr(
            session_module,
            "execute_point",
            lambda *args, **kwargs: pytest.fail("resume recomputed a point"),
        )
        results = CampaignRunner(Session(store=ResultStore(tmp_path))).run(campaign)
        assert len(results) == 4

    def test_label_only_points_share_digest_but_keep_their_labels(self, tmp_path):
        # A params.* axis deliberately does not change the experiment
        # identity, so both points share one result artifact — but a
        # store-loaded ResultSet must still report each point's own labels.
        campaign = Campaign(name="labels", scenario=point_scenario(adversary=None))
        campaign.add_axis(**{"params.mode": ["a", "b"]})
        points = campaign.expand()
        assert points[0].digest == points[1].digest

        fresh = CampaignRunner(Session(store=ResultStore(tmp_path))).run(campaign)
        assert [p.parameters["mode"] for p in fresh] == ["a", "b"]
        loaded = CampaignRunner(Session(store=ResultStore(tmp_path))).result_set(
            campaign
        )
        assert [p.parameters["mode"] for p in loaded] == ["a", "b"]
        assert [p.label for p in loaded] == [points[0].label, points[1].label]

    def test_result_set_raises_on_incomplete_campaign(self, tmp_path):
        campaign = grid_campaign()
        runner = CampaignRunner(Session(store=ResultStore(tmp_path)))
        runner.run(campaign, max_points=1)
        with pytest.raises(LookupError):
            runner.result_set(campaign)

    def test_manifest_artifact_records_completion(self, tmp_path):
        campaign = grid_campaign()
        store = ResultStore(tmp_path)
        runner = CampaignRunner(Session(store=store))
        runner.run(campaign, max_points=2)
        # The artifact names the campaign and its points; which of them are
        # complete is read off the result artifacts, not recorded in it.
        manifest = store.load_json("campaign", campaign.digest)
        assert manifest["total"] == 4
        assert [(p["index"], p["digest"]) for p in manifest["points"]] == [
            (point.index, point.digest) for point in campaign.expand()
        ]
        status = runner.status(campaign).to_dict()
        assert [p["state"] for p in status["points"]] == [
            "complete",
            "complete",
            "pending",
            "pending",
        ]

    def test_run_campaign_uses_the_shared_default_session(self):
        rows = campaign_rows(
            Campaign.from_grid(
                "tiny",
                point_scenario(),
                {"adversary.coverage": [1.0]},
                exporter="attack_sweep",
            )
        )
        assert len(rows) == 1
        assert rows[0]["coverage"] == 1.0
        assert rows[0]["delay_ratio"] >= 1.0

    def test_run_campaign_partial_helper(self):
        results = run_campaign(grid_campaign(), session=Session(), max_points=2)
        assert len(results) == 2
