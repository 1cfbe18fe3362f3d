"""Unit tests for FaultPlan parsing, validation, and digest discipline."""

import pytest

from repro.api import AdversarySpec, Campaign, Scenario
from repro.faults import (
    ChurnSpec,
    CrashSpec,
    DegradedLinkWindow,
    FaultPlan,
    PartitionWindow,
    canonical_fault_plan,
)


class TestParsing:
    def test_empty_payload_is_a_noop_plan(self):
        plan = FaultPlan.from_dict({})
        assert not plan.is_active()
        assert plan.canonical() is None

    def test_none_payload_is_a_noop_plan(self):
        assert not FaultPlan.from_dict(None).is_active()

    def test_round_trip_preserves_every_section(self):
        payload = {
            "crash": {
                "rate_per_peer_per_year": 4.0,
                "mean_downtime_days": 2.0,
                "lose_replicas": True,
            },
            "churn": {"rate_per_peer_per_year": 1.0},
            "partitions": [{"start_day": 10.0, "duration_days": 5.0, "fraction": 0.3}],
            "degraded_links": [{"start_day": 0.0, "bandwidth_factor": 0.5}],
        }
        plan = FaultPlan.from_dict(payload)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.to_dict() == plan.to_dict()

    def test_unknown_section_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault section"):
            FaultPlan.from_dict({"quakes": {}})

    def test_unknown_field_is_rejected_with_the_section_named(self):
        with pytest.raises(ValueError, match="crash"):
            FaultPlan.from_dict({"crash": {"rate": 1.0}})

    def test_unknown_window_field_names_the_index(self):
        with pytest.raises(ValueError, match=r"partitions\[1\]"):
            FaultPlan.from_dict(
                {
                    "partitions": [
                        {"start_day": 0.0, "duration_days": 1.0},
                        {"start_day": 5.0, "length": 1.0},
                    ]
                }
            )

    def test_scalar_section_is_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            FaultPlan.from_dict({"crash": 3.0})

    def test_non_list_windows_are_rejected(self):
        with pytest.raises(ValueError, match="must be a list"):
            FaultPlan.from_dict({"partitions": {"start_day": 0.0}})


class TestValidation:
    @pytest.mark.parametrize(
        "section,payload",
        [
            ("crash", {"rate_per_peer_per_year": -1.0}),
            ("crash", {"mean_downtime_days": 0.0}),
            ("crash", {"coverage": 1.5}),
            ("crash", {"start_day": 1.0, "end_day": 1.0}),
            ("churn", {"rate_per_peer_per_year": -0.1}),
            ("churn", {"coverage": -0.1}),
        ],
    )
    def test_bad_spec_values_are_rejected(self, section, payload):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({section: payload})

    @pytest.mark.parametrize(
        "payload",
        [
            {"duration_days": 0.0},
            {"fraction": 1.5},
            {"start_day": -1.0},
        ],
    )
    def test_bad_partition_windows_are_rejected(self, payload):
        with pytest.raises(ValueError):
            PartitionWindow(**payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"bandwidth_factor": 0.0},
            {"latency_factor": -1.0},
            {"duration_days": 0.0},
        ],
    )
    def test_bad_degraded_link_windows_are_rejected(self, payload):
        with pytest.raises(ValueError):
            DegradedLinkWindow(**payload)

    def test_zero_rate_specs_are_inactive(self):
        assert not CrashSpec().active
        assert not ChurnSpec().active
        assert not CrashSpec(rate_per_peer_per_year=1.0, coverage=0.0).active
        assert CrashSpec(rate_per_peer_per_year=1.0).active


class TestCanonicalization:
    def test_omitted_and_spelled_out_defaults_hash_identically(self):
        terse = canonical_fault_plan({"churn": {"rate_per_peer_per_year": 4.0}})
        verbose = canonical_fault_plan(
            {
                "churn": {
                    "rate_per_peer_per_year": 4.0,
                    "mean_downtime_days": 30.0,
                    "coverage": 1.0,
                    "start_day": 0.0,
                    "end_day": None,
                }
            }
        )
        assert terse == verbose

    def test_noop_plan_canonicalizes_to_none(self):
        assert canonical_fault_plan(None) is None
        assert canonical_fault_plan({}) is None
        assert canonical_fault_plan({"crash": {"rate_per_peer_per_year": 0.0}}) is None


ADVERSARY = AdversarySpec(
    "pipe_stoppage",
    {"attack_duration_days": 45.0, "coverage": 1.0, "recuperation_days": 15.0},
)


def scenario(**overrides):
    fields = dict(name="faulted", base="smoke", adversary=ADVERSARY, seeds=(1,))
    fields.update(overrides)
    return Scenario(**fields)


class TestScenarioIntegration:
    def test_invalid_faults_fail_at_scenario_construction(self):
        with pytest.raises(ValueError):
            scenario(faults={"quakes": {}})

    def test_noop_plan_digests_like_no_plan(self):
        bare = scenario()
        noop = scenario(faults={"crash": {"rate_per_peer_per_year": 0.0}})
        assert noop.digest == bare.digest
        assert noop.point_digest(1) == bare.point_digest(1)
        assert noop.point_digest(1, baseline=True) == bare.point_digest(1, baseline=True)

    def test_active_plan_changes_every_digest(self):
        bare = scenario()
        faulted = scenario(faults={"churn": {"rate_per_peer_per_year": 4.0}})
        assert faulted.digest != bare.digest
        assert faulted.point_digest(1) != bare.point_digest(1)
        # Faults are environment, not adversary: the baseline runs them too,
        # so its digest must move with the plan.
        assert faulted.point_digest(1, baseline=True) != bare.point_digest(
            1, baseline=True
        )

    def test_faults_survive_scenario_json_round_trip(self):
        faulted = scenario(
            faults={"partitions": [{"start_day": 10.0, "duration_days": 2.0}]}
        )
        again = Scenario.from_json(faulted.to_json())
        assert again.faults == faulted.faults
        assert again.digest == faulted.digest

    def test_faults_sweep_scope_expands_per_point(self):
        base = scenario(faults={"churn": {"rate_per_peer_per_year": 4.0}})
        grid = {"faults.churn.rate_per_peer_per_year": [4.0, 12.0]}
        points = [p.scenario for p in Campaign.from_grid("churn", base, grid).expand()]
        assert [p.faults["churn"]["rate_per_peer_per_year"] for p in points] == [
            4.0,
            12.0,
        ]
        assert len({p.digest for p in points}) == 2
