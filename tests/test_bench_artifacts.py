"""The one gate: every bench artifact's pinned digest and the paper's claims.

``bench._run_artifact`` digests an artifact's rows and judges the paper's
claims on those same rows; this module holds all 18 artifacts to the
committed baseline and shows that a broken claim, and a drifted digest with
intact claims, are each reported for what they are.
"""

import copy
import functools
import json
from pathlib import Path

import pytest

from repro.api import Session, campaign_rows
from repro.api.resultset import digest_rows
from repro.cli import main
from repro.experiments import bench

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_baseline.json"


@pytest.mark.parametrize("name", list(bench.ARTIFACTS))
def test_pinned_digest_and_paper_claims(name):
    record = bench._run_artifact(name)
    assert record["digest"] == bench.load_baseline(BASELINE)[name]
    assert record["claims"] == {
        "total": len(bench.ARTIFACTS[name].claims),
        "broken": [],
    }


def test_every_paper_figure_carries_claims():
    claimed = [name for name, artifact in bench.ARTIFACTS.items() if artifact.claims]
    assert len(claimed) >= 11
    assert sum(len(bench.ARTIFACTS[name].claims) for name in claimed) >= 22
    for name in claimed:
        assert bench.ARTIFACTS[name].key, name


@functools.lru_cache(maxsize=None)
def _rows_once(name):
    return campaign_rows(bench.artifact_campaign(name), session=Session())


def real_rows(name):
    """A private copy of the artifact's real rows (each artifact runs once)."""
    return copy.deepcopy(_rows_once(name))


def set_value(column, value, **where):
    def mutate(rows):
        (row,) = [r for r in rows if all(r[k] == v for k, v in where.items())]
        row[column] = value
        return rows

    return mutate


def drop_row(**where):
    def mutate(rows):
        return [r for r in rows if not all(r[k] == v for k, v in where.items())]

    return mutate


class TestBrokenClaims:
    @pytest.mark.parametrize(
        "name, mutate, fragments",
        [
            # An ordering between two rows: the short attack now delays polls
            # more than the long one (both thresholds still hold).
            (
                "fig4_delay_ratio",
                set_value("delay_ratio", 1.9, attack_duration_days=10.0),
                ["grows with attack duration"],
            ),
            # A bound every row must meet.
            (
                "table1_effortful",
                set_value("delay_ratio", 2.5, defection="remaining"),
                ["delay ratio near 1"],
            ),
            # The shared near-baseline bound of Fig. 6 and Table 1.
            (
                "fig6_admission",
                set_value("access_failure_probability", 0.9, attack_duration_days=200.0),
                ["near the no-attack baseline"],
            ),
            (
                "table1_effortful",
                set_value("access_failure_probability", 0.9, defection="none"),
                ["near the no-attack baseline"],
            ),
            # The grid itself: a point went missing.
            (
                "fig2_baseline",
                drop_row(poll_interval_months=3.0),
                ["all four"],
            ),
            # A claim that cannot be evaluated is broken, not skipped: its row
            # is gone, or its value is None.
            (
                "fig4_delay_ratio",
                drop_row(attack_duration_days=120.0),
                ["grows with attack duration", "120-day"],
            ),
            (
                "fig3_pipe_stoppage",
                set_value(
                    "access_failure_probability",
                    None,
                    coverage=0.4,
                    attack_duration_days=150.0,
                ),
                ["100% coverage is as damaging as 40%"],
            ),
        ],
    )
    def test_a_perturbed_row_breaks_exactly_its_claims(self, name, mutate, fragments):
        statements = list(bench.ARTIFACTS[name].claims)
        assert bench.evaluate_claims(name, real_rows(name))["broken"] == []
        expected = [s for s in statements if any(f in s for f in fragments)]
        assert len(expected) == len(fragments)
        verdict = bench.evaluate_claims(name, mutate(real_rows(name)))
        assert verdict == {"total": len(statements), "broken": expected}

    def test_names_outside_the_registry_have_no_claims(self):
        assert bench.evaluate_claims("hand-written", [{"x": 1}]) == {
            "total": 0,
            "broken": [],
        }

    def test_another_campaigns_rows_satisfy_no_claim(self):
        # `campaign report --artifact fig4_delay_ratio` on rows that lack the
        # artifact's key columns: every claim is broken, nothing raises.
        verdict = bench.evaluate_claims("fig4_delay_ratio", [{"x": 1}])
        assert verdict["broken"] == list(bench.ARTIFACTS["fig4_delay_ratio"].claims)


class TestJudge:
    def record(self, name, rows):
        return {"digest": digest_rows(rows), "claims": bench.evaluate_claims(name, rows)}

    def baseline(self, tmp_path, **digests):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"digests": digests}), encoding="utf-8")
        return path

    def test_matching_digest_and_intact_claims_are_no_problem(self):
        name = "fig3_pipe_stoppage"
        assert bench.judge({name: self.record(name, real_rows(name))}, BASELINE) == []

    def test_drift_with_intact_claims_says_the_paper_still_holds(self, tmp_path):
        name = "fig3_pipe_stoppage"
        record = self.record(name, real_rows(name))
        path = self.baseline(tmp_path, **{name: "0" * 64})
        (problem,) = bench.judge({name: record}, path)
        assert record["digest"][:16] in problem and "0" * 16 in problem
        assert "2/2 paper claims still hold" in problem

    def test_drift_with_a_broken_claim_names_the_claim(self, tmp_path):
        name = "fig4_delay_ratio"
        rows = set_value("delay_ratio", 1.9, attack_duration_days=10.0)(real_rows(name))
        path = self.baseline(tmp_path, **{name: "0" * 64})
        drift, broken = bench.judge({name: self.record(name, rows)}, path)
        assert "2/3 paper claims still hold" in drift
        assert broken.startswith(name + ": paper claim broken: Fig. 4: the delay ratio grows")

    def test_a_broken_claim_is_reported_without_a_digest_comparison(self):
        name = "fig6_admission"
        rows = real_rows(name)
        rows[0]["access_failure_probability"] = 0.9
        (problem,) = bench.judge({name: self.record(name, rows)}, None)
        assert "paper claim broken: Fig. 6" in problem


class TestBrokenClaimCli:
    STATEMENT = "Fig. 4: a claim this change broke"

    @pytest.fixture
    def broken(self, monkeypatch):
        artifact = bench.ARTIFACTS["fig4_delay_ratio"]
        claims = dict(artifact.claims)
        claims[self.STATEMENT] = lambda by: by[120.0]["delay_ratio"] < by[10.0]["delay_ratio"]
        monkeypatch.setitem(
            bench.ARTIFACTS, "fig4_delay_ratio", artifact._replace(claims=claims)
        )

    def bench_argv(self, *extra):
        return ["bench", "--artifacts", "fig4_delay_ratio", "--out", "", *extra]

    def test_bench_fails_naming_the_statement(self, broken, capsys):
        assert main(self.bench_argv("--baseline", str(BASELINE))) == 1
        output = capsys.readouterr().out
        assert "3/4" in output  # the report's claims column
        assert "fig4_delay_ratio: paper claim broken: " + self.STATEMENT in output
        assert "!= baseline" not in output  # the digest itself did not move

    def test_no_check_skips_the_digest_comparison_only(self, broken, capsys, tmp_path):
        argv = self.bench_argv("--no-check", "--baseline", str(tmp_path / "absent.json"))
        assert main(argv) == 1
        assert self.STATEMENT in capsys.readouterr().out

    def test_update_baseline_writes_and_still_fails(self, broken, capsys, tmp_path):
        path = tmp_path / "baseline.json"
        assert main(self.bench_argv("--update-baseline", "--baseline", str(path))) == 1
        assert self.STATEMENT in capsys.readouterr().out
        assert bench.load_baseline(path) == {
            "fig4_delay_ratio": bench.load_baseline(BASELINE)["fig4_delay_ratio"]
        }

    def test_campaign_report_fails_naming_the_statement(self, broken, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "fig4_delay_ratio", "--store", store]) == 0
        capsys.readouterr()
        argv = ["campaign", "report", "fig4_delay_ratio", "--store", store]
        assert main(argv + ["--check-digest", str(BASELINE)]) == 1
        assert "paper claim broken: " + self.STATEMENT in capsys.readouterr().out

    def test_campaign_report_states_the_verdict_when_claims_hold(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "fig4_delay_ratio", "--store", store]) == 0
        capsys.readouterr()
        argv = ["campaign", "report", "fig4_delay_ratio", "--store", store]
        assert main(argv + ["--check-digest", str(BASELINE)]) == 0
        output = capsys.readouterr().out
        assert "result digest matches the committed baseline" in output
        assert "3/3 paper claims hold" in output
