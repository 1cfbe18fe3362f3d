"""Tests for the repro-experiments command-line interface."""

import pytest

from repro.api.session import default_session
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _clear_cache():
    default_session().clear_cache()
    yield
    default_session().clear_cache()


FAST_SCALE = ["--peers", "8", "--aus", "1", "--years", "0.6", "--seed", "5", "--seeds", "5"]


class TestParser:
    def test_requires_a_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_baseline_defaults(self):
        args = build_parser().parse_args(["baseline"])
        assert args.command == "baseline"
        assert args.intervals == [2.0, 3.0, 6.0, 12.0]
        assert args.mtbf == [5.0]
        assert args.seeds == [1]

    def test_scale_arguments_are_parsed(self):
        args = build_parser().parse_args(["pipe-stoppage", *FAST_SCALE])
        assert args.peers == 8
        assert args.aus == 1
        assert args.years == 0.6
        assert args.seeds == [5]

    def test_comma_separated_lists(self):
        args = build_parser().parse_args(
            ["pipe-stoppage", "--durations", "5,30", "--coverages", "0.4,1.0"]
        )
        assert args.durations == [5.0, 30.0]
        assert args.coverages == [0.4, 1.0]

    def test_table1_defection_choices(self):
        args = build_parser().parse_args(["table1", "--defections", "intro", "none"])
        assert args.defections == ["intro", "none"]
        assert build_parser().parse_args(["table1", "--rate", "2.5"]).rate == 2.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--defections", "bogus"])

    def test_ablation_requires_a_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation"])
        args = build_parser().parse_args(["ablation", "effort"])
        assert args.which == "effort"


class TestExecution:
    def test_baseline_command_prints_the_figure2_table(self, capsys):
        exit_code = main(
            ["baseline", *FAST_SCALE, "--intervals", "3", "--mtbf", "5"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 2" in output
        assert "poll_interval_months" in output
        assert "3.000" in output

    def test_pipe_stoppage_command_prints_the_metrics(self, capsys):
        exit_code = main(
            ["pipe-stoppage", *FAST_SCALE, "--durations", "60", "--coverages", "1.0"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "delay_ratio" in output
        assert "coefficient_of_friction" in output

    def test_table1_command_single_defection(self, capsys):
        exit_code = main(["table1", *FAST_SCALE, "--defections", "intro"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in output
        assert "intro" in output
        assert "cost_ratio" in output

    def test_ablation_desync_command(self, capsys):
        exit_code = main(["ablation", "desync", *FAST_SCALE])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "desynchronized" in output
        assert "refusal_rate" in output


class TestScenarioCommands:
    def test_list_adversaries_shows_builtins(self, capsys):
        exit_code = main(["list-adversaries"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for kind in ("pipe_stoppage", "admission_flood", "brute_force", "composed"):
            assert kind in output
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
        exit_code = main(["run", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cli point" in output
        assert "delay_ratio" in output
        assert scenario.digest[:12] in output

    def test_run_sweep_scenario_with_store(self, tmp_path, capsys):
        from repro import units
        from repro.api import AdversarySpec, Scenario

        scenario = Scenario(
            name="cli sweep",
            base="smoke",
            sim={"duration": units.months(5)},
            adversary=AdversarySpec("pipe_stoppage", {"coverage": 1.0}),
            seeds=(1,),
            sweep={"adversary.attack_duration_days": [30.0, 60.0]},
        )
        path = scenario.save(tmp_path / "sweep.json")
        store_dir = tmp_path / "store"
        exit_code = main(["run", str(path), "--store", str(store_dir)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "attack_duration_days" in output
        assert store_dir.is_dir() and list(store_dir.glob("runs-*.json"))

    def test_run_seeds_override(self, tmp_path, capsys):
        from repro import units
        from repro.api import Scenario

        scenario = Scenario(
            name="cli seeds",
            base="smoke",
            sim={"duration": units.months(5)},
            seeds=(1, 2, 3),
        )
        path = scenario.save(tmp_path / "scenario.json")
        exit_code = main(["run", str(path), "--seeds", "5"])
        assert exit_code == 0
        assert "cli seeds" in capsys.readouterr().out

    def test_attack_commands_are_generated_from_registry(self):
        parser = build_parser()
        args = parser.parse_args(
            ["pipe-stoppage", "--durations", "5,30", "--coverages", "0.4"]
        )
        assert args.durations == [5.0, 30.0]
        assert args.coverages == [0.4]
        args = parser.parse_args(["admission-flood", "--rate", "12"])
        assert args.rate == 12.0
        args = parser.parse_args(
            ["admission-flood", "--durations", "10,20", "--coverages", "0.5"]
            + ["--recuperation", "15"]
        )
        assert args.durations == [10.0, 20.0]
        assert args.coverages == [0.5]
        assert args.recuperation == 15.0
        args = parser.parse_args(["pipe-stoppage", "--recuperation", "45"])
        assert args.recuperation == 45.0

    def test_workers_and_store_flags_parse(self):
        args = build_parser().parse_args(
            ["baseline", "--workers", "4", "--store", "/tmp/x"]
        )
        assert args.workers == 4
        assert args.store == "/tmp/x"
