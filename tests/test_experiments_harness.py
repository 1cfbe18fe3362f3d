"""Integration tests for the experiment harness (session runs, sweeps, reporting)."""

import importlib
import pkgutil

import pytest

import repro
from repro import units
from repro.adversary.brute_force import DefectionPoint
from repro.api import AdversarySpec, Scenario, Session, campaign_rows
from repro.api.session import default_session
from repro.config import smoke_config
from repro.experiments import ablation, admission_attack, baseline, effortful, pipe_stoppage
from repro.experiments.attacks import FIGURE_COLUMNS
from repro.experiments.reporting import format_table, format_value


@pytest.fixture(autouse=True)
def _clear_cache():
    default_session().clear_cache()
    yield
    default_session().clear_cache()


@pytest.fixture
def smoke():
    protocol, sim = smoke_config()
    # Shorten further so each harness test runs in a couple of seconds.
    return protocol, sim.with_overrides(duration=units.months(7))


class TestRunner:
    def test_run_many_produces_one_result_per_seed(self, smoke):
        protocol, sim = smoke
        scenario = Scenario.from_configs("quiet", protocol, sim, seeds=(1, 2))
        results = Session().run_metrics(scenario)
        assert len(results) == 2

    def test_baseline_cache_reuses_runs(self, smoke):
        protocol, sim = smoke
        scenario = Scenario.from_configs("quiet", protocol, sim, seeds=(1,))
        session = Session()
        first = session.run_metrics(scenario, baseline=True)
        second = session.run_metrics(scenario, baseline=True)
        assert first[0] is second[0]
        session.clear_cache()
        third = session.run_metrics(scenario, baseline=True)
        assert third[0] is not first[0]
        assert third[0].to_dict() == first[0].to_dict()

    def test_run_attack_experiment_compares_against_baseline(self, smoke):
        protocol, sim = smoke
        scenario = Scenario.from_configs(
            "pipe",
            protocol,
            sim,
            adversary=AdversarySpec(
                "pipe_stoppage",
                {
                    "attack_duration_days": 90.0,
                    "coverage": 1.0,
                    "recuperation_days": 15.0,
                },
            ),
            seeds=(1,),
            parameters={"coverage": 1.0},
        )
        result = Session().run(scenario)
        assert result.assessment.delay_ratio >= 1.0
        assert result.assessment.cost_ratio is None
        assert result.parameters == {"coverage": 1.0}
        assert len(result.attacked_runs) == 1
        assert len(result.baseline_runs) == 1


class TestPackageSurface:
    def test_every_submodule_imports_and_every_export_resolves(self):
        # A stale re-export after a deletion must fail here, not first in
        # the traced benchmark (perf/trace.py imports every submodule too).
        names = ["repro"] + [
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        assert len(names) > 50
        for name in names:
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", ()):
                assert hasattr(module, export), "%s.%s" % (name, export)

    def test_experiment_result_is_one_class(self):
        from repro import api, experiments

        assert repro.ExperimentResult is api.session.ExperimentResult
        assert experiments.ExperimentResult is api.session.ExperimentResult


class TestSweeps:
    def test_baseline_sweep_rows_have_expected_columns(self, smoke):
        protocol, sim = smoke
        campaign = baseline.baseline_campaign(
            poll_intervals_months=(2.0, 4.0),
            storage_mtbf_years=(1.0,),
            collection_sizes=(1,),
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
        )
        rows = campaign_rows(campaign)
        assert len(rows) == 2
        for row in rows:
            assert set(baseline.FIGURE2_COLUMNS) <= set(row)
            assert row["normalized_access_failure_probability"] <= row[
                "access_failure_probability"
            ]
        assert rows[0]["poll_interval_months"] == 2.0
        assert rows[1]["poll_interval_months"] == 4.0

    def test_baseline_reference_point(self, smoke):
        protocol, sim = smoke
        # The paper's reference operating point: 3-month polls, 5-year MTBF.
        campaign = baseline.baseline_campaign(
            poll_intervals_months=(3.0,),
            storage_mtbf_years=(5.0,),
            collection_sizes=(sim.n_aus,),
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
        )
        (row,) = campaign_rows(campaign)
        assert row["poll_interval_months"] == 3.0
        assert row["storage_mtbf_years"] == 5.0

    def test_pipe_stoppage_sweep_structure(self, smoke):
        protocol, sim = smoke
        campaign = pipe_stoppage.pipe_stoppage_campaign(
            durations_days=(60.0,),
            coverages=(1.0,),
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
            recuperation_days=15.0,
        )
        rows = campaign_rows(campaign)
        assert len(rows) == 1
        row = rows[0]
        assert row["coverage"] == 1.0
        assert row["delay_ratio"] >= 1.0
        assert row["coefficient_of_friction"] > 0
        assert "normalized_access_failure_probability" in row

    def test_admission_sweep_structure(self, smoke):
        protocol, sim = smoke
        campaign = admission_attack.admission_flood_campaign(
            durations_days=(60.0,),
            coverages=(1.0,),
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
            invitations_per_victim_per_day=6.0,
        )
        rows = campaign_rows(campaign)
        assert len(rows) == 1
        assert rows[0]["attack_duration_days"] == 60.0
        assert rows[0]["delay_ratio"] > 0

    def test_effortful_table_structure(self, smoke):
        protocol, sim = smoke
        campaign = effortful.effortful_campaign(
            defections=(DefectionPoint.INTRO, DefectionPoint.NONE),
            collection_sizes=(1,),
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
        )
        rows = campaign_rows(campaign)
        assert [row["defection"] for row in rows] == ["intro", "none"]
        for row in rows:
            assert row["cost_ratio"] is not None and row["cost_ratio"] > 0
            assert row["coefficient_of_friction"] > 0
            assert set(effortful.TABLE1_COLUMNS) <= set(row)


class TestAblation:
    def test_admission_control_ablation_shows_the_defense_helps(self, smoke):
        protocol, sim = smoke
        campaign = ablation.admission_ablation_campaign(
            attack_duration_days=60.0,
            coverage=1.0,
            invitations_per_victim_per_day=48.0,
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
        )
        rows = campaign_rows(campaign)
        assert [row["admission_control"] for row in rows] == [True, False]
        enabled, disabled = rows
        # With the filter disabled, every garbage invitation is considered,
        # so the defenders do at least as much work per successful poll.
        assert disabled["loyal_effort"] >= enabled["loyal_effort"]

    def test_effort_balancing_ablation_cheapens_the_attack(self, smoke):
        protocol, sim = smoke
        campaign = ablation.effort_ablation_campaign(
            introductory_fractions=(0.20, 0.02),
            seeds=(1,),
            protocol_config=protocol,
            sim_config=sim,
        )
        rows = campaign_rows(campaign)
        assert len(rows) == 2
        full_toll, tiny_toll = rows
        assert tiny_toll["adversary_effort"] < full_toll["adversary_effort"]

    def test_desynchronization_ablation_reports_both_modes(self, smoke):
        protocol, sim = smoke
        campaign = ablation.desync_ablation_campaign(
            seeds=(1,), protocol_config=protocol, sim_config=sim
        )
        rows = campaign_rows(campaign)
        assert [row["mode"] for row in rows] == ["desynchronized", "synchronized"]
        for row in rows:
            assert 0.0 <= row["success_rate"] <= 1.0


class TestReporting:
    def test_format_value_styles(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.500"
        assert format_value(5.9e-4) == "5.90e-04"
        assert format_value("x") == "x"

    def test_format_table_alignment_and_rows(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        assert "long-name" in lines[3]

    def test_figure_formatters_render(self):
        def render(columns, rows):
            return format_table(columns, [[row.get(c) for c in columns] for row in rows])

        rows = [
            {
                "poll_interval_months": 3,
                "storage_mtbf_years": 5,
                "n_aus": 1,
                "access_failure_probability": 1e-3,
                "successful_polls": 10,
                "failed_polls": 1,
            }
        ]
        assert "poll_interval_months" in render(baseline.FIGURE2_COLUMNS, rows)
        attack_rows = [
            {
                "attack_duration_days": 30,
                "coverage": 1.0,
                "access_failure_probability": 2e-3,
                "delay_ratio": 1.5,
                "coefficient_of_friction": 1.2,
            }
        ]
        assert "delay_ratio" in render(FIGURE_COLUMNS, attack_rows)
        table1_rows = [
            {
                "defection": "none",
                "n_aus": 1,
                "coefficient_of_friction": 2.5,
                "cost_ratio": 1.0,
                "delay_ratio": 1.1,
                "access_failure_probability": 5e-4,
            }
        ]
        assert "cost_ratio" in render(effortful.TABLE1_COLUMNS, table1_rows)
