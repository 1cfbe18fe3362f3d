"""Campaign-level fault handling: failed points in the manifest, resume
re-leasing, Ctrl-C resumability, and fault-plan axes."""

import logging

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
from repro.api import session as session_module


def base_scenario(**overrides):
    fields = dict(
        name="campaign fault test",
        base="smoke",
        sim={"duration": units.months(3)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 30.0, "coverage": 1.0, "recuperation_days": 10.0},
        ),
        seeds=(1,),
    )
    fields.update(overrides)
    return Scenario(**fields)


def two_point_campaign():
    return Campaign.from_grid(
        "fault grid", base_scenario(), {"adversary.coverage": [0.4, 1.0]}
    )


def status_of(store, campaign):
    """The ``campaign status --json`` payload a fresh runner reads off ``store``."""
    return CampaignRunner(Session(store=store)).status(campaign).to_dict()


def states_of(payload):
    return {entry["index"]: entry["state"] for entry in payload["points"]}


class SelectiveFailure:
    """execute_point stand-in failing runs whose resolved value matches."""

    def __init__(self, poisoned_coverage, error=RuntimeError):
        self.poisoned_coverage = poisoned_coverage
        self.error = error
        self.real = session_module.execute_point

    def __call__(self, scenario, seed, baseline=False, registry=None, trace_path=None):
        adversary = scenario.adversary
        if (
            not baseline
            and adversary is not None
            and adversary.params.get("coverage") == self.poisoned_coverage
        ):
            raise self.error("poisoned point")
        return self.real(
            scenario, seed, baseline=baseline, registry=registry, trace_path=trace_path
        )


class TestFailedPoints:
    def test_failed_point_is_marked_and_the_rest_complete(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setattr(
            session_module, "execute_point", SelectiveFailure(1.0)
        )
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        runner = CampaignRunner(
            Session(store=store, retries=0, retry_backoff=0.0), store=store
        )
        with caplog.at_level(logging.WARNING, logger="repro.api.campaign"):
            results = runner.run(campaign)
        assert len(results) == 1
        payload = status_of(store, campaign)
        assert states_of(payload) == {0: "complete", 1: "failed"}
        assert "poisoned point" in payload["points"][1]["error"]
        assert payload["counts"] == {"complete": 1, "failed": 1, "pending": 0}
        assert payload["complete"] is False
        # The failure is logged where it is recorded, correlated by digests.
        (record,) = [r for r in caplog.records if r.name == "repro.api.campaign"]
        message = record.getMessage()
        point = campaign.expand()[1]
        assert record.levelno == logging.WARNING
        assert campaign.digest in message and point.digest in message
        assert "#1" in message and "poisoned point" in message

    def test_resume_releases_failed_points(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        with monkeypatch.context() as patch:
            patch.setattr(session_module, "execute_point", SelectiveFailure(1.0))
            CampaignRunner(
                Session(store=store, retries=0, retry_backoff=0.0), store=store
            ).run(campaign)
        # The transient cause is gone; a fresh runner must re-lease exactly
        # the failed point and finish the campaign.
        results = CampaignRunner(Session(store=store), store=store).run(campaign)
        assert len(results) == len(campaign)
        payload = status_of(store, campaign)
        assert states_of(payload) == {0: "complete", 1: "complete"}
        assert all("error" not in entry for entry in payload["points"])
        assert payload["complete"] is True

    def test_failure_does_not_abort_later_chunks(self, tmp_path, monkeypatch):
        # workers=1 -> chunk size 1: the poisoned first point must not stop
        # the second chunk from running.
        monkeypatch.setattr(
            session_module, "execute_point", SelectiveFailure(0.4)
        )
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        results = CampaignRunner(
            Session(store=store, retries=0, retry_backoff=0.0), store=store
        ).run(campaign)
        assert len(results) == 1
        assert states_of(status_of(store, campaign)) == {0: "failed", 1: "complete"}

    def test_capped_run_keeps_the_failure_record(self, tmp_path, monkeypatch):
        # A run that stops short of a previously failed point has learnt
        # nothing about it: the point stays failed, with its error.
        monkeypatch.setattr(session_module, "execute_point", SelectiveFailure(1.0))
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        runner = CampaignRunner(
            Session(store=store, retries=0, retry_backoff=0.0), store=store
        )
        runner.run(campaign)
        before = status_of(store, campaign)
        assert states_of(before) == {0: "complete", 1: "failed"}
        runner.run(campaign, max_points=0)
        assert status_of(store, campaign) == before


class TestKeyboardInterrupt:
    def test_interrupt_leaves_a_resumable_store(self, tmp_path, monkeypatch):
        # Nothing is flushed on the way out: the completed point's result
        # artifact is its completion, so the store alone says where to resume.
        monkeypatch.setattr(
            session_module, "execute_point", SelectiveFailure(1.0, KeyboardInterrupt)
        )
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        runner = CampaignRunner(Session(store=store), store=store)
        with pytest.raises(KeyboardInterrupt):
            runner.run(campaign)
        payload = status_of(store, campaign)
        assert states_of(payload) == {0: "complete", 1: "pending"}
        assert payload["counts"] == {"complete": 1, "failed": 0, "pending": 1}

    def test_interrupted_resume_keeps_the_failure_record(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        session = Session(store=store, retries=0, retry_backoff=0.0)
        with monkeypatch.context() as patch:
            patch.setattr(session_module, "execute_point", SelectiveFailure(1.0))
            CampaignRunner(session, store=store).run(campaign)
        before = status_of(store, campaign)
        assert states_of(before) == {0: "complete", 1: "failed"}
        # Ctrl-C in the first chunk of the resume, before the failed point
        # has been retried to an outcome.
        monkeypatch.setattr(
            session_module, "execute_point", SelectiveFailure(1.0, KeyboardInterrupt)
        )
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(session, store=store).resume(campaign)
        assert status_of(store, campaign) == before

    def test_interrupted_campaign_resumes_like_max_points(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        campaign = two_point_campaign()
        with monkeypatch.context() as patch:
            real = session_module.execute_point

            def interrupt_second_point(
                scenario, seed, baseline=False, registry=None, trace_path=None
            ):
                if (
                    not baseline
                    and scenario.adversary is not None
                    and scenario.adversary.params.get("coverage") == 1.0
                ):
                    raise KeyboardInterrupt()
                return real(
                    scenario,
                    seed,
                    baseline=baseline,
                    registry=registry,
                    trace_path=trace_path,
                )

            patch.setattr(session_module, "execute_point", interrupt_second_point)
            with pytest.raises(KeyboardInterrupt):
                CampaignRunner(Session(store=store), store=store).run(campaign)
        resumed = CampaignRunner(Session(store=store), store=store).resume(campaign)
        assert len(resumed) == len(campaign)


class TestFaultAxes:
    def test_fault_plan_axis_expands_and_digests_distinctly(self):
        scenario = base_scenario(
            adversary=None,
            faults={"churn": {"rate_per_peer_per_year": 4.0}},
        )
        campaign = Campaign.from_grid(
            "churn grid",
            scenario,
            {"faults.churn.rate_per_peer_per_year": [4.0, 12.0]},
        )
        points = campaign.expand()
        assert [point.parameters for point in points] == [
            {"churn.rate_per_peer_per_year": 4.0},
            {"churn.rate_per_peer_per_year": 12.0},
        ]
        assert len({point.digest for point in points}) == 2

    def test_faulted_campaign_runs_serial_equals_parallel(self, tmp_path):
        scenario = base_scenario(
            adversary=None,
            faults={"churn": {"rate_per_peer_per_year": 8.0, "mean_downtime_days": 5.0}},
        )
        campaign = Campaign.from_grid(
            "churn grid",
            scenario,
            {"faults.churn.rate_per_peer_per_year": [4.0, 12.0]},
        )
        serial = CampaignRunner(Session(workers=1)).run(campaign)
        with Session(workers=2) as pooled_session:
            pooled = CampaignRunner(pooled_session).run(campaign)
        for left, right in zip(serial, pooled):
            assert left.digest == right.digest
            assert left.result.assessment == right.result.assessment
