"""Tests for trace capture, verified replay, bisection, and trace storage."""

import gzip
import json

import pytest

from repro import units
from repro.api import AdversarySpec, ResultStore, Scenario, Session
from repro.replay import (
    ReplayDivergence,
    ReplayError,
    ReplaySignature,
    SignatureMismatch,
    TRACE_FORMAT,
    TraceReader,
    TraceWriter,
    filter_records,
    first_divergence,
    iter_records,
    metrics_digest,
    record_run,
    replay_trace,
)
from repro.api.session import execute_point


def smoke_scenario(**overrides):
    fields = dict(
        name="replay test",
        base="smoke",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 20.0, "coverage": 1.0, "recuperation_days": 10.0},
        ),
        seeds=(1,),
    )
    fields.update(overrides)
    return Scenario(**fields)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded run shared by the read-only tests in this module."""
    scenario = smoke_scenario()
    path = tmp_path_factory.mktemp("traces") / "run.jsonl.gz"
    metrics = record_run(scenario, 1, path)
    return scenario, path, metrics


def new_writer(tmp_path, name="trace.jsonl.gz"):
    scenario = smoke_scenario()
    signature = ReplaySignature.for_point(scenario, 1, False)
    path = tmp_path / name
    return path, TraceWriter(path, signature, scenario.to_dict(), 1, False)


def rewrite_trace(src, dst, mutate_header=None, mutate_records=None, digest=None):
    """Re-emit a trace through :class:`TraceWriter`, optionally mutating the
    header dict, the record list or the footer's metrics digest."""
    with TraceReader(src) as reader:
        header = json.loads(json.dumps(reader.header))
        records = [list(record) for record in reader.records()]
        _, time, events, recorded_digest = reader.read_footer()
    if mutate_header is not None:
        mutate_header(header)
    if mutate_records is not None:
        mutate_records(records)
    writer = TraceWriter(
        dst,
        ReplaySignature.from_dict(header["signature"]),
        header["scenario"],
        header["seed"],
        header["baseline"],
    )
    for record in records:
        writer.write(record)
    writer.close(time, events, recorded_digest if digest is None else digest)
    return dst


class TestRecordFidelity:
    def test_record_on_metrics_match_record_off(self, recorded):
        scenario, _, metrics = recorded
        off = execute_point(scenario, 1)
        assert metrics_digest(metrics) == metrics_digest(off)

    def test_trace_is_self_contained(self, recorded):
        scenario, path, _ = recorded
        with TraceReader(path) as reader:
            assert reader.seed == 1
            assert reader.baseline is False
            assert Scenario.from_dict(reader.scenario_dict).digest == scenario.digest
            assert reader.signature == ReplaySignature.for_point(scenario, 1, False)

    def test_trace_contains_expected_record_kinds(self, recorded):
        _, path, _ = recorded
        kinds = {record[0] for record in iter_records(path)}
        # A pipe-stoppage run must at least send messages, conclude polls,
        # and open adversary windows.
        assert {"send", "poll", "win"} <= kinds

    def test_records_are_time_ordered_per_kind_stream(self, recorded):
        _, path, _ = recorded
        times = [record[1] for record in iter_records(path)]
        assert times, "trace has no records"
        assert all(isinstance(t, (int, float)) for t in times)


class TestReplay:
    def test_replay_reproduces_digest_exactly(self, recorded):
        _, path, metrics = recorded
        report = replay_trace(path)
        assert report.metrics_digest == metrics_digest(metrics)
        assert report.records_checked == sum(1 for _ in iter_records(path))
        assert report.records_checked > 0

    def test_replay_diverges_on_tampered_record(self, recorded, tmp_path):
        _, path, _ = recorded

        def tamper(records):
            for record in records:
                if record[0] == "send":
                    record[5] += 1  # size_bytes off by one
                    return
            pytest.fail("no send record to tamper with")

        bad = rewrite_trace(path, tmp_path / "tampered.jsonl.gz", mutate_records=tamper)
        with pytest.raises(ReplayDivergence):
            replay_trace(bad)

    def test_replay_diverges_on_extra_recorded_record(self, recorded, tmp_path):
        _, path, _ = recorded
        bad = rewrite_trace(
            path,
            tmp_path / "extra.jsonl.gz",
            mutate_records=lambda records: records.append(
                ["dmg", 1.0, "peer-00", "au-0", 0]
            ),
        )
        with pytest.raises(ReplayDivergence):
            replay_trace(bad)

    def test_replay_rejects_kernel_version_drift(self, recorded, tmp_path):
        _, path, _ = recorded

        def bump(header):
            header["signature"]["kernel_version"] += 1

        bad = rewrite_trace(path, tmp_path / "kernel.jsonl.gz", mutate_header=bump)
        with pytest.raises(SignatureMismatch):
            replay_trace(bad)

    def test_replay_rejects_scenario_drift(self, recorded, tmp_path):
        # The embedded scenario changed but the stamped digests did not:
        # the signature check must refuse before simulating anything.
        def drift(header):
            header["scenario"]["sim"]["duration"] = units.months(3)

        _, path, _ = recorded
        bad = rewrite_trace(path, tmp_path / "drift.jsonl.gz", mutate_header=drift)
        with pytest.raises(SignatureMismatch):
            replay_trace(bad)

    def test_replay_rejects_footer_digest_lie(self, recorded, tmp_path):
        _, path, _ = recorded
        assert TraceReader(path).read_footer()[3] != "0" * 64
        bad = rewrite_trace(path, tmp_path / "footer.jsonl.gz", digest="0" * 64)
        with pytest.raises(ReplayError):
            replay_trace(bad)


class TestWriterLifecycle:
    def test_finalize_is_atomic(self, tmp_path):
        path, writer = new_writer(tmp_path)
        writer.write(["dmg", 1.0, "peer-00", "au-0", 0])
        assert not path.exists()
        assert path.with_name(path.name + ".tmp").exists()
        writer.close(2.0, 10, "d" * 64)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
        assert writer.records_written == 1

    def test_abort_discards_partial_trace(self, tmp_path):
        path, writer = new_writer(tmp_path)
        writer.write(["dmg", 1.0, "peer-00", "au-0", 0])
        writer.abort()
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_double_close_refused(self, tmp_path):
        _, writer = new_writer(tmp_path)
        writer.close(1.0, 0, "d" * 64)
        with pytest.raises(RuntimeError):
            writer.close(1.0, 0, "d" * 64)

    def test_sink_survives_flushes(self, tmp_path):
        # ``sink`` is a bound append on a buffer cleared in place; records
        # written through it after a flush must still land in the trace.
        path, writer = new_writer(tmp_path)
        writer.sink(["dmg", 1.0, "peer-00", "au-0", 0])
        writer.maybe_flush()  # below the chunk size: no-op
        writer._flush()  # force the in-place clear
        writer.sink(["dmg", 2.0, "peer-00", "au-0", 1])
        writer.close(3.0, 2, "d" * 64)
        assert [record[4] for record in iter_records(path)] == [0, 1]

    def test_reader_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bogus.jsonl.gz"
        with gzip.open(path, "wb") as stream:
            stream.write(b'{"format": "something-else"}\n')
        with pytest.raises(SignatureMismatch):
            TraceReader(path)

    def test_reader_rejects_a_version_1_trace_before_its_body(self, tmp_path):
        path = tmp_path / "v1.jsonl.gz"
        with gzip.open(path, "wb") as stream:
            stream.write(b'{"format":"%s","version":1}\n' % TRACE_FORMAT.encode())
            stream.write(b'[["dmg",1.0,"peer-00","au-0",0]]\n["end",2.0,1,"d"]\n')
        with pytest.raises(SignatureMismatch, match="version 1, this code reads 2"):
            TraceReader(path)


class TestCodec:
    """Every record kind survives the packed body exactly."""

    MIXED = [
        ["send", 0.5, "peer-00", "peer-01", "Vote", 100],
        ["adm", 1, "peer-01", "peer-00", "admitted"],
        ["poll", 2.5, "peer-00", "au-0", "scheduled", 1, 0, 5, 5, 0, 0],
        ["dmg", 3.5, "peer-02", "au-0", 7],
        ["fault", 4.0, "net", "partition_start"],
        ["win", 5.25, "adv", 0, [0, 2], ["peer-01", "peer-02"]],
        ["win", 6.0, "adv", 1, [], []],
        ["send", 1e-300, "peer-01", "peer-00", "Vote", -(2**31)],
    ]

    def _roundtrip(self, tmp_path, records):
        path, writer = new_writer(tmp_path)
        for record in records:
            writer.write(record)
        writer.close(9.0, len(records), "d" * 64)
        with TraceReader(path) as reader:
            decoded = list(reader.records())
            assert reader.footer == ["end", 9.0, len(records), "d" * 64]
        return decoded

    def test_every_kind_roundtrips_with_its_types(self, tmp_path):
        decoded = self._roundtrip(tmp_path, self.MIXED)
        assert decoded == self.MIXED  # the int time 1 decodes as 1.0, which is ==
        assert [list(map(type, r[2:])) for r in decoded] == [
            list(map(type, r[2:])) for r in self.MIXED
        ]

    @pytest.mark.parametrize("count", [4096, 4097])
    def test_chunk_boundary(self, tmp_path, count):
        records = [self.MIXED[i % len(self.MIXED)] for i in range(count)]
        assert self._roundtrip(tmp_path, records) == records

    def test_string_table_past_16_bits(self, tmp_path):
        records = [["adm", float(i), "voter-%d" % i, "p", "admitted"] for i in range(70000)]
        assert self._roundtrip(tmp_path, records) == records

    def test_empty_trace(self, tmp_path):
        assert self._roundtrip(tmp_path, []) == []

    def test_out_of_range_int_names_kind_and_field(self, tmp_path):
        _, writer = new_writer(tmp_path)
        writer.write(["poll", 1.0, "p", "au", "r", 1, 0, 2**31, 0, 0, 0])
        with pytest.raises(ValueError, match="'poll' field 'inner_votes'"):
            writer._flush()
        writer.abort()


class TestDamagedTraces:
    @pytest.mark.parametrize(
        "damage, message",
        [
            # the gzip stream itself is cut short
            (lambda raw, packed: packed[: len(packed) // 2], "truncated or corrupt"),
            # a well-formed gzip whose body stops inside the first frame
            (lambda raw, packed: gzip.compress(raw[: raw.index(b"\n") + 40]), "torn"),
            # a well-formed gzip whose body stops before the E frame
            (lambda raw, packed: gzip.compress(raw[: raw.rindex(b'["end"') - 5]), "no footer"),
        ],
    )
    def test_damage_raises_signature_mismatch(self, recorded, tmp_path, damage, message):
        _, path, _ = recorded
        packed = path.read_bytes()
        bad = tmp_path / "damaged.jsonl.gz"
        bad.write_bytes(damage(gzip.decompress(packed), packed))
        with pytest.raises(SignatureMismatch, match=message):
            list(iter_records(bad))


class TestFilterRecords:
    RECORDS = [
        ["send", 0.5, "peer-00", "peer-01", "Vote", 100],
        ["adm", 1.5, "peer-01", "peer-00", "admitted"],
        ["poll", 2.5, "peer-00", "au-0", "scheduled", 1, 0, 5, 5, 0, 0],
        ["dmg", 3.5, "peer-02", "au-0", 7],
    ]

    def test_filter_by_kind(self):
        assert [r[0] for r in filter_records(self.RECORDS, kinds=["send", "dmg"])] == [
            "send",
            "dmg",
        ]

    def test_filter_by_time_window(self):
        out = list(filter_records(self.RECORDS, start=1.0, until=3.0))
        assert [r[0] for r in out] == ["adm", "poll"]

    def test_filter_by_peer_matches_any_id_field(self):
        out = list(filter_records(self.RECORDS, peer="peer-00"))
        assert [r[0] for r in out] == ["send", "adm", "poll"]

    def test_filters_compose(self):
        out = list(filter_records(self.RECORDS, kinds=["send"], peer="peer-02"))
        assert out == []


class TestBisect:
    def test_identical_traces_have_no_divergence(self, recorded, tmp_path):
        scenario, path, _ = recorded
        other = tmp_path / "again.jsonl.gz"
        record_run(scenario, 1, other)
        assert first_divergence(path, other) is None

    def test_divergent_record_is_located(self, recorded, tmp_path):
        _, path, _ = recorded

        def tamper(records):
            records[7][1] += 0.125

        bad = rewrite_trace(path, tmp_path / "mut.jsonl.gz", mutate_records=tamper)
        divergence = first_divergence(path, bad, context=3)
        assert divergence is not None
        assert divergence.index == 7
        assert divergence.record_a[1] != divergence.record_b[1]
        assert len(divergence.context) <= 3
        assert "record 7" in divergence.describe()

    def test_header_mismatch_reports_index_minus_one(self, recorded, tmp_path):
        _, path, _ = recorded
        other = tmp_path / "other.jsonl.gz"
        record_run(smoke_scenario(seeds=(2,)), 2, other)
        divergence = first_divergence(path, other)
        assert divergence is not None
        assert divergence.index == -1


class TestStoreTraces:
    def test_session_record_writes_traces_for_computed_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        session = Session(store=store, record=True)
        scenario = smoke_scenario()
        session.run(scenario)
        # attacked + baseline, one seed each.
        traces = store.trace_paths()
        assert len(traces) == 2
        for trace in traces:
            report = replay_trace(trace)
            assert report.records_checked > 0

    def test_cached_runs_are_not_rerecorded(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = smoke_scenario()
        Session(store=store).run(scenario)  # populate the cache, no traces
        assert store.trace_paths() == []
        Session(store=store, record=True).run(scenario)
        # Everything was served from the store: still no traces.
        assert store.trace_paths() == []

    def test_record_without_store_is_refused(self):
        with pytest.raises(ValueError):
            Session(record=True).run(smoke_scenario())

    def test_artifacts_include_traces(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        Session(store=store, record=True).run(smoke_scenario())
        artifacts = store.artifacts()
        assert set(store.trace_paths()) <= set(artifacts)

    def test_prune_trace_kind_sweeps_traces_and_orphans(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        Session(store=store, record=True).run(smoke_scenario())
        orphan = store.root / "trace-deadbeef.jsonl.gz.tmp"
        orphan.write_bytes(b"partial")
        removed = store.prune(kind="trace")
        assert store.trace_paths() == []
        assert not orphan.exists()
        assert removed >= 3  # two traces + the orphaned partial
        # JSON artifacts survive a trace-only prune.
        assert list(store.root.glob("*-*.json"))

    def test_prune_other_kinds_leave_traces(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        Session(store=store, record=True).run(smoke_scenario())
        traces = store.trace_paths()
        store.prune(kind="result")
        assert store.trace_paths() == traces
