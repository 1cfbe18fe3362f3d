"""CLI coverage for the campaign/store subcommands and the bench harness."""

import dataclasses
import json
import re
from pathlib import Path

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
from repro.api.session import default_session
from repro.cli import build_parser, main
from repro.experiments import bench

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "bench_baseline.json"


@pytest.fixture(autouse=True)
def _clear_cache():
    default_session().clear_cache()
    yield
    default_session().clear_cache()


def campaign_file(tmp_path, exporter="attack_sweep"):
    scenario = Scenario(
        name="cli campaign",
        base="smoke",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 45.0, "coverage": 1.0, "recuperation_days": 15.0},
        ),
        seeds=(1,),
    )
    campaign = Campaign.from_grid(
        "cli-campaign",
        scenario,
        {"adversary.attack_duration_days": [30.0, 60.0]},
        exporter=exporter,
    )
    return campaign, campaign.save(tmp_path / "campaign.json")


class TestCampaignParser:
    def test_campaign_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_options_parse(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "run",
                "fig2_baseline",
                "--store",
                "/tmp/x",
                "--workers",
                "2",
                "--max-points",
                "2",
            ]
        )
        assert args.campaign == "fig2_baseline"
        assert args.max_points == 2
        assert args.workers == 2

    def test_store_prune_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "prune"])


#: The laptop-scale figure campaigns: (points, exporter, campaign digest).
#: The campaign digest hashes every point digest in order, so a drift means
#: ``campaign run <file>`` no longer runs the points the file was written for.
LAPTOP_CAMPAIGNS = {
    "laptop_fig2_baseline.json": (
        4, "figure2",
        "78021ff6726082952d9f591389494daf6657b79904e2122cefd223de245f6234",
    ),
    "laptop_fig3_5_pipe_stoppage.json": (
        6, "attack_sweep",
        "87b556a08d43e493984ed4556ebca41c9cf324aafb202faf08c9e6ab3f27a5a1",
    ),
    "laptop_fig6_8_admission_flood.json": (
        2, "attack_sweep",
        "38d8d1ec8d1dd2b7c78a9245203baeb25193118c4f889603eeeaefbd5f9e4aa1",
    ),
    "laptop_table1.json": (
        3, "table1",
        "698e6fd8f3d2c68f32eb7c17f1f97a6e1fffbefa321fc742e28419b0f70e8e82",
    ),
    "laptop_ablation_admission.json": (
        2, "ablation_admission",
        "42a716e8f2c3c5a132d8469ef5c0eb642c04a14748d1522706b93e7d588984de",
    ),
    "laptop_ablation_effort.json": (
        2, "ablation_effort",
        "f1f9484b35dab233778c85965fdb324cc3217e71182482b6e07e2247a570a3dd",
    ),
    "laptop_ablation_desync.json": (
        2, "ablation_desync",
        "2e341f241df790595ffc6a823c4fee99074c323dde7a822f80217c2990bf8523",
    ),
}


@pytest.mark.parametrize("filename", sorted(LAPTOP_CAMPAIGNS))
def test_laptop_campaign_files_are_pinned(filename):
    path = REPO_ROOT / "examples" / "campaigns" / filename
    campaign = Campaign.load(path)
    assert (len(campaign), campaign.exporter, campaign.digest) == (
        LAPTOP_CAMPAIGNS[filename]
    )
    assert campaign.description.endswith("campaign run examples/campaigns/" + filename)


class TestCampaignExecution:
    def test_run_status_resume_report_cycle(self, tmp_path, capsys):
        campaign, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")

        assert main(["campaign", "run", str(path), "--store", store,
                     "--max-points", "1"]) == 0
        output = capsys.readouterr().out
        assert "1/2 points complete" in output
        assert "campaign resume" in output

        assert main(["campaign", "status", str(path), "--store", store]) == 0
        output = capsys.readouterr().out
        assert "pending" in output and "complete" in output

        assert main(["campaign", "resume", str(path), "--store", store]) == 0
        output = capsys.readouterr().out
        assert "2 points complete" in output
        assert "delay_ratio" in output

        assert main(["campaign", "report", str(path), "--store", store]) == 0
        output = capsys.readouterr().out
        assert "result digest:" in output

    def test_run_without_store_prints_rows(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "2 points complete" in output
        assert "coefficient_of_friction" in output

    def test_resume_and_report_need_a_store(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        assert main(["campaign", "resume", str(path)]) == 2
        assert "--store" in capsys.readouterr().out
        assert main(["campaign", "report", str(path)]) == 2
        assert "--store" in capsys.readouterr().out

    def test_report_on_incomplete_campaign_fails(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")
        main(["campaign", "run", str(path), "--store", store, "--max-points", "1"])
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "--store", store]) == 2
        assert "incomplete" in capsys.readouterr().out

    def test_unknown_campaign_reference_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "status", "no_such_artifact"])

    def test_named_artifact_resolves_from_the_bench_registry(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "status", "fig2_baseline", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "0/4 points complete" in output

    def test_report_check_digest_against_baseline(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "fig2_baseline", "--store", store]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "campaign",
                    "report",
                    "fig2_baseline",
                    "--store",
                    store,
                    "--check-digest",
                    str(BASELINE),
                ]
            )
            == 0
        )
        assert "matches the committed baseline" in capsys.readouterr().out

    def test_report_check_digest_fails_on_unknown_key(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")
        main(["campaign", "run", str(path), "--store", store])
        capsys.readouterr()
        # The hand-written campaign has no digest in the committed baseline.
        assert (
            main(
                [
                    "campaign",
                    "report",
                    str(path),
                    "--store",
                    store,
                    "--check-digest",
                    str(BASELINE),
                ]
            )
            == 1
        )
        assert "no baseline digest" in capsys.readouterr().out
        # --artifact names the baseline key: fig2's digest is not this one's.
        argv = ["campaign", "report", str(path), "--store", store]
        argv += ["--check-digest", str(BASELINE), "--artifact", "fig2_baseline"]
        assert main(argv) == 1
        assert "fig2_baseline: digest" in capsys.readouterr().out


def report_digest(path, store, capsys):
    """The rows digest ``campaign report`` prints for a complete campaign."""
    assert main(["campaign", "report", str(path), "--store", str(store)]) == 0
    return re.search(r"result digest: ([0-9a-f]{64})", capsys.readouterr().out).group(1)


class TestStaleAndCorruptArtifacts:
    """A point is its runs: stale ``result`` files are never read, and a
    corrupt ``runs`` file costs the recompute of exactly its points."""

    def test_stale_result_artifacts_change_nothing_and_prune_away(
        self, tmp_path, capsys
    ):
        campaign, path = campaign_file(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["campaign", "run", str(path), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        clean = report_digest(path, store_dir, capsys)
        # Stores of the previous format hold each point's result beside its
        # runs, in the shape of ``dataclasses.asdict``; one is wrong here.
        store = ResultStore(store_dir)
        for point in CampaignRunner(Session(store=store)).result_set(campaign):
            payload = dataclasses.asdict(point.result)
            if point.index == 0:
                payload["assessment"]["delay_ratio"] = 1e9
                payload["label"] = "stale"
            store.save_json("result", point.digest, payload)
        assert report_digest(path, store_dir, capsys) == clean

        assert main(
            ["store", "prune", "--store", str(store_dir), "--kind", "result"]
        ) == 0
        assert "pruned 2 item(s)" in capsys.readouterr().out
        assert not list(store_dir.glob("result-*.json"))
        assert report_digest(path, store_dir, capsys) == clean

    def test_a_corrupt_runs_file_is_quarantined_and_only_its_point_rerun(
        self, tmp_path, capsys, monkeypatch
    ):
        campaign, path = campaign_file(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["campaign", "run", str(path), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        clean = report_digest(path, store_dir, capsys)
        point = campaign.expand()[1]
        (attacked,) = [digest for _, side, digest in point.run_keys if not side]
        torn = store_dir / ("runs-%s.json" % attacked)
        torn.write_text('[{"access_failure_probability": 0.', encoding="utf-8")

        status = ["campaign", "status", str(path), "--store", str(store_dir), "--json"]
        assert main(status) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["state"] for p in payload["points"]] == ["complete", "pending"]
        assert not torn.exists()
        assert torn.with_name(torn.name + ".corrupt").exists()

        executed = []
        real_execute_point = session_module.execute_point

        def counting_execute_point(scenario, seed, **kwargs):
            executed.append((scenario.name, seed, kwargs.get("baseline")))
            return real_execute_point(scenario, seed, **kwargs)

        monkeypatch.setattr(session_module, "execute_point", counting_execute_point)
        assert main(["campaign", "resume", str(path), "--store", str(store_dir)]) == 0
        assert "2 points complete" in capsys.readouterr().out
        assert executed == [(point.label, 1, False)]
        assert report_digest(path, store_dir, capsys) == clean


class TestStorePrune:
    def test_prune_removes_temp_files_and_kinds(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.save_json("runs", "d1", [])
        store.save_json("result", "d2", {})
        (tmp_path / "runs-torn.json.abc123.tmp").write_text("{torn", encoding="utf-8")

        assert main(["store", "prune", "--store", str(tmp_path)]) == 0
        assert "pruned 1 item(s)" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.tmp"))
        assert store.load_json("runs", "d1") == []

        assert main(["store", "prune", "--store", str(tmp_path), "--kind", "runs"]) == 0
        capsys.readouterr()
        assert store.load_json("runs", "d1") is None
        assert store.load_json("result", "d2") == {}

    def test_prune_rejects_invalid_kind(self, tmp_path, capsys):
        assert (
            main(["store", "prune", "--store", str(tmp_path), "--kind", "../evil"]) == 2
        )
        assert "invalid artifact kind" in capsys.readouterr().out


class TestBenchQuick:
    def test_bench_quick_checks_digests_against_the_baseline(self, capsys):
        exit_code = main(
            [
                "bench",
                "--quick",
                "--out",
                "",
                "--baseline",
                str(BASELINE),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "all result digests match the committed baseline" in output
        for artifact in ("fig2_baseline", "fig3_pipe_stoppage", "fig6_admission",
                         "paper_smoke_100"):
            assert artifact in output

    def test_bench_rejects_unknown_artifacts(self, capsys):
        assert main(["bench", "--artifacts", "not_a_real_artifact", "--out", ""]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert "unknown bench artifact(s) not_a_real_artifact" in line
        assert "fig2_baseline" in line and "partition_attack" in line


class TestTornBaseline:
    """A baseline that exists but cannot be read is not an absent baseline."""

    @pytest.mark.parametrize("text", ["{broken", '{"digests": ["not", "a", "map"]}'])
    def test_bench_reports_it_by_path_and_reason(
        self, monkeypatch, tmp_path, capsys, text
    ):
        fake_artifact_runner(monkeypatch)
        torn = tmp_path / "bench_baseline.json"
        torn.write_text(text, encoding="utf-8")
        argv = ["bench", "--artifacts", "fig2_baseline", "--out", "", "--baseline"]
        for extra in ([], ["--update-baseline"]):
            assert main(argv + [str(torn)] + extra) == 1
            output = capsys.readouterr().out
            assert "unreadable digest baseline %s: " % torn in output
            assert "--update-baseline" not in output
            assert "no digest baseline" not in output
        assert torn.read_text(encoding="utf-8") == text

    def test_campaign_report_reports_it_by_path_and_reason(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")
        main(["campaign", "run", str(path), "--store", store])
        capsys.readouterr()
        torn = tmp_path / "bench_baseline.json"
        torn.write_text("{broken", encoding="utf-8")
        argv = ["campaign", "report", str(path), "--store", store]
        assert main(argv + ["--check-digest", str(torn)]) == 1
        output = capsys.readouterr().out
        assert "unreadable digest baseline %s: " % torn in output
        assert "no baseline digest" not in output

    def test_an_absent_baseline_is_still_reported_as_absent(self, monkeypatch, capsys):
        fake_artifact_runner(monkeypatch)
        argv = ["bench", "--artifacts", "fig2_baseline", "--out", "", "--baseline"]
        assert main(argv + ["/nonexistent/bench_baseline.json"]) == 1
        assert "no digest baseline at /nonexistent" in capsys.readouterr().out


#: The comparator's one report schema: per-artifact keys common to every mode.
COMPARISON_KEYS = {
    "title", "digest", "claims", "digest_match", "off", "on", "pair_ratios", "ratio",
}


class TestBenchComparison:
    @pytest.mark.parametrize(
        "mode, artifact",
        [
            ("record", "fig2_baseline"),
            ("telemetry", "fig2_baseline"),
            ("fork", "delayed_attack_sweep"),
        ],
    )
    def test_every_mode_reports_one_schema_and_matching_digests(self, mode, artifact):
        report = bench.run_comparison(mode, names=[artifact], repeats=1)
        counters = bench.COMPARISONS[mode].counters
        assert report["mode"] == mode + "-compare"
        assert report["counters"] == list(counters)
        record = report["artifacts"][artifact]
        assert set(record) == COMPARISON_KEYS | set(counters)
        assert record["digest_match"] is True
        assert set(record["off"]) == set(record["on"])
        assert len(record["pair_ratios"]) == report["repeats"] == 1
        assert record["ratio"] == record["pair_ratios"][0] > 0
        # The on side really was on: it traced, published, checkpointed.
        assert record[counters[0]] > 0
        assert set(report["total"]) == {
            "off_wall_s", "on_wall_s", "pass_ratios", "ratio", *counters
        }
        assert bench.judge(report["artifacts"], BASELINE) == []
        table = bench.format_comparison(report)
        assert artifact in table and "overhead" in table and counters[0] in table

    def test_unknown_mode_and_artifact_are_rejected(self):
        with pytest.raises(KeyError):
            bench.run_comparison("warp")
        with pytest.raises(ValueError):
            bench.run_comparison("record", names=["not_a_real_artifact"])


def fake_artifact_runner(monkeypatch, on_wall=0.2, on_digest=None):
    """Replace the one artifact runner with canned records (off wall 0.1 s)."""
    digest = json.loads(BASELINE.read_text())["digests"]["fig2_baseline"]

    def run(name, variant=None):
        record = {
            "title": name,
            "wall_s": 0.1,
            "events": 1000,
            "events_per_s": 10000.0,
            "rows": 4,
            "digest": digest,
            "claims": {"total": 0, "broken": []},
            "peak_rss_kb": 1,
        }
        if variant is not None:
            record.update(wall_s=on_wall, digest=on_digest or digest)
            record.update(dict.fromkeys(bench.COMPARISONS[variant].counters, 1))
        return record

    monkeypatch.setattr(bench, "_run_artifact", run)


class TestBenchCompareCli:
    COMMON = [
        "--artifacts", "fig2_baseline", "--repeats", "1", "--baseline", str(BASELINE),
    ]

    def test_perturbed_on_side_digest_fails(self, monkeypatch, capsys):
        fake_artifact_runner(monkeypatch, on_digest="0" * 64)
        exit_code = main(["bench", "--telemetry-compare", "--out", ""] + self.COMMON)
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "TELEMETRY PERTURBED RESULTS" in output
        assert "fig2_baseline" in output.splitlines()[-1]

    def test_max_overhead_below_the_measured_ratio_fails(self, monkeypatch, capsys):
        fake_artifact_runner(monkeypatch, on_wall=0.2)  # ratio 2.0: +100%
        argv = ["bench", "--record-compare", "--out", ""] + self.COMMON
        assert main(argv + ["--max-overhead", "5"]) == 1
        assert "RECORDING OVERHEAD 100.0% exceeds the 5.0% budget" in (
            capsys.readouterr().out
        )
        assert main(argv + ["--max-overhead", "150"]) == 0
        assert "all result digests match" in capsys.readouterr().out

    def test_out_is_honoured_and_defaults_per_mode(self, monkeypatch, tmp_path):
        fake_artifact_runner(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--fork-compare"] + self.COMMON) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["BENCH_PR9.json"]
        argv = ["bench", "--fork-compare", "--out", "BENCH_PR2.json"] + self.COMMON
        assert main(argv) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "BENCH_PR2.json", "BENCH_PR9.json",
        ]
        report = json.loads((tmp_path / "BENCH_PR2.json").read_text())
        assert report["mode"] == "fork-compare"

    def test_compare_modes_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--record-compare", "--fork-compare"])
        assert "not allowed with" in capsys.readouterr().err
