"""Tests for the repro-experiments command-line interface."""

import pytest

from repro import units
from repro.api import DEFAULT_REGISTRY, Campaign
from repro.api.session import default_session
from repro.cli import build_parser, main
from repro.experiments import bench


@pytest.fixture(autouse=True)
def _clear_cache():
    default_session().clear_cache()
    yield
    default_session().clear_cache()


def run_small(tmp_path, name, axes):
    """Run bench artifact ``name`` through ``campaign run`` as a file, edited
    to seed 5 and 0.6 simulated years, ``axes`` (index -> axis) replaced."""
    payload = bench.load_artifact(name)
    payload["scenario"]["sim"]["duration"] = units.years(0.6)
    payload["scenario"]["seeds"] = [5]
    for index, axis in axes.items():
        payload["axes"][index] = axis
    campaign = bench.campaign_of(payload)
    return main(["campaign", "run", str(campaign.save(tmp_path / "campaign.json"))])


class TestParser:
    def test_requires_a_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_one_run_verb(self):
        # ``campaign run`` runs grids, scenario files and resumes alike.
        def verbs(parser):
            (action,) = [a for a in parser._actions if a.dest.endswith("command")]
            return action.choices

        top = verbs(build_parser())
        assert sorted(top) == sorted(
            "campaign store replay bisect checkpoint fork serve worker "
            "list-adversaries bench".split()
        )
        assert sorted(verbs(top["campaign"])) == ["report", "run", "status", "submit"]


class TestExecution:
    """Each figure runs through ``campaign run``: a bench artifact's file
    edited to a small scale and saved, or a committed ``laptop_*.json`` file."""

    def test_baseline_command_prints_the_figure2_table(self, tmp_path, capsys):
        poll_interval = {
            "protocol.poll_interval": [units.months(3)],
            "params.poll_interval_months": [3.0],
        }
        exit_code = run_small(tmp_path, "fig2_baseline", {2: poll_interval})
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "1 points complete" in output
        assert "poll_interval_months" in output
        assert "3.000" in output

    def test_pipe_stoppage_command_prints_the_metrics(self, tmp_path, capsys):
        axes = {
            0: {"adversary.coverage": [1.0]},
            1: {"adversary.attack_duration_days": [60.0]},
        }
        exit_code = run_small(tmp_path, "fig3_pipe_stoppage", axes)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "delay_ratio" in output
        assert "coefficient_of_friction" in output

    def test_table1_command_single_defection(self, tmp_path, capsys):
        axes = {0: {"adversary.defection": ["intro"]}}
        exit_code = run_small(tmp_path, "table1_effortful", axes)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "intro" in output
        assert "cost_ratio" in output

    def test_ablation_desync_command(self, capsys):
        exit_code = main(
            ["campaign", "run", "examples/campaigns/laptop_ablation_desync.json"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "desynchronized" in output
        assert "refusal_rate" in output


class TestScenarioCommands:
    def test_list_adversaries_shows_builtins(self, capsys):
        exit_code = main(["list-adversaries"])
        output = capsys.readouterr().out
        assert exit_code == 0
        header = output.splitlines()[1]
        assert [cell.strip() for cell in header.strip("|").split("|")] == [
            "name", "description", "defaults",
        ]
        for kind in ("pipe_stoppage", "admission_flood", "brute_force", "composed"):
            assert kind in output
        for entry in DEFAULT_REGISTRY:
            assert "| %s " % entry.name in output
        assert "Targeting components" not in output

    def test_list_adversaries_components_shows_the_catalogs(self, capsys):
        exit_code = main(["list-adversaries", "--components"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for heading in (
            "Targeting components",
            "Schedule components",
            "Vector components",
            "Adaptive components",
        ):
            assert heading in output
        for kind in (
            "random_subset",
            "sticky",
            "round_robin",
            "weighted_damage",
            "on_off",
            "ramp",
            "piecewise",
            "brute_force_poll",
            "effort_attrition",
            "threshold_switch",
        ):
            assert kind in output

    def test_campaign_run_structured_spec_matrix(self, tmp_path, capsys):
        exit_code = main(
            [
                "campaign",
                "run",
                "examples/campaigns/adversary_matrix.json",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "4 points complete" in output
        assert "targeting.kind" in output
        assert "vectors.0.kind" in output

    def test_run_point_scenario_from_file(self, tmp_path, capsys):
        from repro import units
        from repro.api import AdversarySpec, Scenario

        scenario = Scenario(
            name="cli point",
            base="smoke",
            sim={"duration": units.months(5)},
            adversary=AdversarySpec(
                "pipe_stoppage", {"attack_duration_days": 45.0, "coverage": 1.0}
            ),
            seeds=(1,),
        )
        path = scenario.save(tmp_path / "scenario.json")
        exit_code = main(["campaign", "run", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cli point" in output
        assert "delay_ratio" in output
        assert Campaign("cli point", scenario).digest[:12] in output

    def test_run_sweep_scenario_with_store(self, tmp_path, capsys):
        from repro import units
        from repro.api import AdversarySpec, Scenario

        scenario = Scenario(
            name="cli sweep",
            base="smoke",
            sim={"duration": units.months(5)},
            adversary=AdversarySpec("pipe_stoppage", {"coverage": 1.0}),
            seeds=(1,),
        )
        grid = {"adversary.attack_duration_days": [30.0, 60.0]}
        path = Campaign.from_grid("cli sweep", scenario, grid).save(tmp_path / "sweep.json")
        store_dir = tmp_path / "store"
        exit_code = main(["campaign", "run", str(path), "--store", str(store_dir)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2 points complete" in output
        assert "attack_duration_days" in output
        assert store_dir.is_dir() and list(store_dir.glob("runs-*.json"))

    def test_workers_and_store_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "run", "fig2_baseline", "--workers", "4", "--store", "/tmp/x"]
        )
        assert args.workers == 4
        assert args.store == "/tmp/x"
