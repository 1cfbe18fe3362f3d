"""ResultStore load-path hardening: quarantine of corrupt artifacts and
trace integrity checks."""

import gzip

from repro import units
from repro.api import ResultStore, Scenario, Session
from repro.replay import ReplaySignature, TraceWriter


def smoke_scenario(**overrides):
    fields = dict(
        name="quarantine test",
        base="smoke",
        sim={"duration": units.months(3)},
        seeds=(1,),
    )
    fields.update(overrides)
    return Scenario(**fields)


def write_fake_trace(store, digest, records=(), complete=True):
    """A trace written by :class:`TraceWriter`; ``complete=False`` cuts the
    body just before its footer frame (the ``E`` tag and ``<I`` length)."""
    path = store.trace_path(digest)
    writer = TraceWriter(path, ReplaySignature("s", digest, 1, False), {}, 1, False)
    for record in records:
        writer.write(record)
    writer.close(0.0, 0, "digest")
    if not complete:
        raw = gzip.decompress(path.read_bytes())
        path.write_bytes(gzip.compress(raw[: raw.rindex(b'["end"') - 5]))
    return path


class TestJsonQuarantine:
    def test_corrupt_json_reads_as_miss_and_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for("runs", "deadbeef")
        path.write_text("{truncated", encoding="utf-8")
        assert store.load_json("runs", "deadbeef") is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_missing_artifact_is_a_plain_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_json("runs", "deadbeef") is None
        assert list(tmp_path.glob("*.corrupt")) == []

    def test_recompute_replaces_a_quarantined_artifact(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = smoke_scenario()
        session = Session(store=store)
        first = session.run_metrics(scenario)
        digest = scenario.point_digest(1)
        # Corrupt the persisted runs artifact, then hit it from a fresh
        # session (empty in-memory cache): the store quarantines and the
        # session recomputes.
        store.path_for("runs", digest).write_text("garbage", encoding="utf-8")
        second = Session(store=store).run_metrics(scenario)
        assert [run.to_dict() for run in first] == [run.to_dict() for run in second]
        assert store.load_runs(digest) is not None
        assert list(tmp_path.glob("*.corrupt"))

    def test_prune_sweeps_quarantined_files(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for("runs", "deadbeef")
        path.write_text("{", encoding="utf-8")
        store.load_json("runs", "deadbeef")
        assert list(tmp_path.glob("*.corrupt"))
        store.prune()
        assert list(tmp_path.glob("*.corrupt")) == []


class TestTraceCheck:
    def test_missing_trace_is_false_without_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.check_trace("deadbeef") is False
        assert list(tmp_path.glob("*.corrupt")) == []

    def test_complete_trace_passes(self, tmp_path):
        store = ResultStore(tmp_path)
        write_fake_trace(store, "deadbeef", [["dmg", 0.0, "p", "au", 1]])
        assert store.check_trace("deadbeef") is True

    def test_footerless_trace_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = write_fake_trace(
            store, "deadbeef", [["dmg", 0.0, "p", "au", 1]], complete=False
        )
        assert store.check_trace("deadbeef") is False
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_truncated_gzip_stream_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = write_fake_trace(store, "deadbeef")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.check_trace("deadbeef") is False
        assert not path.exists()

    def test_non_gzip_bytes_are_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.trace_path("deadbeef")
        path.write_bytes(b"this is not gzip")
        assert store.check_trace("deadbeef") is False
        assert not path.exists()


class TestRecordModeSelfHealing:
    def test_corrupt_trace_forces_recompute_and_regeneration(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = smoke_scenario()
        digest = scenario.point_digest(1)
        Session(store=store, record=True).run_metrics(scenario)
        assert store.check_trace(digest)
        # Truncate the trace, then rerun from a fresh record-mode session:
        # the cached run is recomputed and the trace regenerated.
        path = store.trace_path(digest)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        Session(store=store, record=True).run_metrics(scenario)
        assert store.check_trace(digest)

    def test_missing_trace_stays_a_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = smoke_scenario()
        digest = scenario.point_digest(1)
        Session(store=store, record=True).run_metrics(scenario)
        store.trace_path(digest).unlink()
        # Cached runs are never re-recorded; the trace stays absent.
        Session(store=store, record=True).run_metrics(scenario)
        assert not store.has_trace(digest)
