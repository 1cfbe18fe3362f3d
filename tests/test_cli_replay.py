"""End-to-end CLI tests for record, replay, bisect, checkpoint, and fork."""

import json

import pytest

from repro import units
from repro.api import AdversarySpec, ResultStore, Scenario
from repro.cli import main
from repro.replay.signature import ReplaySignature
from repro.replay.trace import TraceReader, TraceWriter


@pytest.fixture(scope="module")
def recorded_store(tmp_path_factory):
    """A store populated by ``campaign run --record`` for one point scenario."""
    root = tmp_path_factory.mktemp("cli-replay")
    scenario = Scenario(
        name="cli replay point",
        base="smoke",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "pipe_stoppage", {"attack_duration_days": 20.0, "coverage": 1.0}
        ),
        seeds=(1,),
    )
    scenario_path = scenario.save(root / "scenario.json")
    store_dir = root / "store"
    argv = ["campaign", "run", str(scenario_path), "--store", str(store_dir), "--record"]
    assert main(argv) == 0
    return scenario, scenario_path, ResultStore(store_dir)


class TestRecordFlag:
    def test_record_produces_traces(self, recorded_store):
        _, _, store = recorded_store
        assert len(store.trace_paths()) == 2  # attacked + baseline

    def test_record_without_store_is_an_error(self, recorded_store):
        _, scenario_path, _ = recorded_store
        with pytest.raises(SystemExit):
            main(["campaign", "run", str(scenario_path), "--record"])


class TestReplayCommand:
    def test_replay_verifies_a_trace(self, recorded_store, capsys):
        _, _, store = recorded_store
        trace = store.trace_paths()[0]
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out

    def test_replay_expect_digest_mismatch_fails(self, recorded_store, capsys):
        _, _, store = recorded_store
        trace = store.trace_paths()[0]
        assert main(["replay", str(trace), "--expect-digest", "f" * 64]) == 1

    def test_replay_list_windows_by_peer_and_day(self, recorded_store, capsys):
        _, _, store = recorded_store
        argv = ["replay", str(store.trace_paths()[0]), "--list", "--kinds", "poll"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[3].split("|")
        day, peer = float(first[2]), first[3].split("'")[1]
        window = ["--from", str(day - 1), "--until", str(day + 30)]
        assert main(argv + ["--peer", peer] + window) == 0
        rows = [line.split("|") for line in capsys.readouterr().out.splitlines()[3:]]
        assert rows
        assert all(day - 1 <= float(row[2]) < day + 30 and peer in row[3] for row in rows)

    def test_replay_list_filters_records(self, recorded_store, capsys):
        _, _, store = recorded_store
        trace = store.trace_paths()[0]
        assert main(["replay", str(trace), "--list", "--kinds", "send"]) == 0
        out = capsys.readouterr().out
        assert "send" in out
        assert "poll" not in out


class TestBisectCommand:
    def test_identical_traces_exit_zero(self, recorded_store, capsys):
        _, _, store = recorded_store
        trace = str(store.trace_paths()[0])
        assert main(["bisect", trace, trace]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_traces_exit_one(self, recorded_store, capsys):
        _, _, store = recorded_store
        traces = store.trace_paths()
        assert main(["bisect", str(traces[0]), str(traces[1])]) == 1

    def test_context_bounds_the_shared_records_shown(
        self, recorded_store, tmp_path, capsys
    ):
        _, _, store = recorded_store
        trace = store.trace_paths()[0]
        with TraceReader(trace) as reader:
            header = reader.header
            records = [list(record) for record in reader.records()]
            _, time, events, digest = reader.read_footer()
        records[7][1] += 0.125
        tampered = tmp_path / "tampered.jsonl.gz"
        writer = TraceWriter(
            tampered,
            ReplaySignature.from_dict(header["signature"]),
            header["scenario"],
            header["seed"],
            header["baseline"],
        )
        for record in records:
            writer.write(record)
        writer.close(time, events, digest)
        assert main(["bisect", str(trace), str(tampered), "--context", "2"]) == 1
        out = capsys.readouterr().out
        assert "first divergence at record 7" in out
        assert out.count("\n  = ") == 2


class TestCheckpointForkCommands:
    def test_checkpoint_then_fork_roundtrip(self, recorded_store, tmp_path, capsys):
        _, scenario_path, _ = recorded_store
        ckpt = tmp_path / "prefix.ckpt.gz"
        assert (
            main(
                [
                    "checkpoint",
                    str(scenario_path),
                    "--baseline",
                    "--at-days",
                    "60",
                    "--out",
                    str(ckpt),
                ]
            )
            == 0
        )
        assert ckpt.exists()
        capsys.readouterr()

        plain_out = tmp_path / "plain.json"
        assert main(["fork", str(ckpt), "--out", str(plain_out)]) == 0
        capsys.readouterr()

        assert main(["fork", str(ckpt), "--until-days", "90"]) == 0
        assert "forked from 60.0 days, ran to 90.0 days" in capsys.readouterr().out

        forked_out = tmp_path / "forked.json"
        assert (
            main(
                [
                    "fork",
                    str(ckpt),
                    "--adversary",
                    "pipe_stoppage",
                    "--params",
                    '{"attack_duration_days": 30.0, "coverage": 1.0}',
                    "--out",
                    str(forked_out),
                ]
            )
            == 0
        )
        plain = json.loads(plain_out.read_text())
        forked = json.loads(forked_out.read_text())
        assert plain["digest"] != forked["digest"]

    def test_fork_rejects_malformed_params(self, recorded_store, tmp_path):
        _, scenario_path, _ = recorded_store
        ckpt = tmp_path / "prefix.ckpt.gz"
        main(
            [
                "checkpoint",
                str(scenario_path),
                "--baseline",
                "--at-days",
                "30",
                "--out",
                str(ckpt),
            ]
        )
        with pytest.raises(SystemExit):
            main(
                [
                    "fork",
                    str(ckpt),
                    "--adversary",
                    "pipe_stoppage",
                    "--params",
                    "not json",
                ]
            )

    def test_checkpoint_of_another_seed(self, recorded_store, tmp_path, capsys):
        _, scenario_path, _ = recorded_store
        ckpt = str(tmp_path / "seed2.ckpt.gz")
        argv = ["checkpoint", str(scenario_path), "--seed", "2", "--at-days", "30"]
        assert main(argv + ["--out", ckpt]) == 0
        assert "(seed 2) at 30.0 days" in capsys.readouterr().out

    def test_checkpoint_rejects_past_duration_instants(self, recorded_store, tmp_path):
        _, scenario_path, _ = recorded_store
        with pytest.raises(SystemExit):
            main(
                [
                    "checkpoint",
                    str(scenario_path),
                    "--at-days",
                    "100000",
                    "--out",
                    str(tmp_path / "x.ckpt.gz"),
                ]
            )


class TestStorePruneTraces:
    def test_store_prune_kind_trace(self, recorded_store, capsys):
        _, _, store = recorded_store
        orphan = store.root / "trace-cafe.jsonl.gz.tmp"
        orphan.write_bytes(b"torn")
        assert main(["store", "prune", "--store", str(store.root), "--kind", "trace"]) == 0
        assert store.trace_paths() == []
        assert not orphan.exists()
