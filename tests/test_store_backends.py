"""Backend-parity contract suite for the two ResultStore implementations.

Every test in ``TestStoreContract`` runs against both the directory
backend and the SQLite backend through one parameterized fixture — the
service subsystem is only sound if the two are observably interchangeable
behind the ``ResultStore`` interface (save/load/has, runs round-trips,
corrupt-artifact quarantine, traces, prune/clear/stats).  Selection and
migration (:func:`repro.api.store.open_store`,
:func:`repro.api.store.migrate_store`) are covered at the end.
"""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import ResultStore, Scenario, Session
from repro.api.scenario import canonical_json
from repro.api.store import SQLITE_SUFFIXES, migrate_store, open_store
from repro.metrics.report import RunMetrics, average_metrics
from repro.replay import ReplaySignature, TraceWriter
from repro.service import sqlite_store
from repro.service.sqlite_store import SQLiteResultStore


def smoke_scenario(**overrides):
    fields = dict(
        name="backend test",
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


@pytest.fixture(params=["directory", "sqlite"])
def store(request, tmp_path):
    if request.param == "directory":
        yield ResultStore(tmp_path / "store")
    else:
        yield SQLiteResultStore(tmp_path / "store.db")


def corrupt_artifact(store, kind, digest):
    """Damage one persisted artifact through backend-appropriate means."""
    if isinstance(store, SQLiteResultStore):
        store.execute(
            'UPDATE "%s" SET payload=? WHERE digest=?' % store._table(kind),
            ("{truncated", digest),
        )
    else:
        store.path_for(kind, digest).write_text("{truncated", encoding="utf-8")


def quarantine_evidence(store):
    """True if the backend holds quarantined-artifact evidence."""
    if isinstance(store, SQLiteResultStore):
        return store.execute("SELECT COUNT(*) FROM quarantine").fetchone()[0] > 0
    return bool(list(store.root.glob("*.corrupt")))


class TestStoreContract:
    def test_save_load_has_roundtrip(self, store):
        payload = {"b": [1, 2, 3], "a": {"nested": True}}
        assert not store.has("result", "d1")
        store.save_json("result", "d1", payload)
        assert store.has("result", "d1")
        assert store.load_json("result", "d1") == payload

    def test_missing_artifact_is_a_plain_miss(self, store):
        assert store.load_json("runs", "missing") is None
        assert not store.has("runs", "missing")
        assert not quarantine_evidence(store)

    def test_save_is_idempotent_overwrite(self, store):
        store.save_json("result", "d1", {"v": 1})
        store.save_json("result", "d1", {"v": 2})
        assert store.load_json("result", "d1") == {"v": 2}
        assert store.stats()["result"]["count"] == 1

    def test_runs_roundtrip_through_session(self, store, tmp_path):
        scenario = smoke_scenario()
        first = Session(store=store).run_metrics(scenario)
        digest = scenario.point_digest(1)
        loaded = store.load_runs(digest)
        assert loaded is not None
        assert [run.to_dict() for run in loaded] == [run.to_dict() for run in first]

    def test_corrupt_artifact_reads_as_miss_and_is_quarantined(self, store):
        store.save_json("runs", "d1", [{"ok": 1}])
        corrupt_artifact(store, "runs", "d1")
        assert store.load_json("runs", "d1") is None
        assert quarantine_evidence(store)
        # The damaged row/file no longer shadows new writes.
        store.save_json("runs", "d1", [{"ok": 2}])
        assert store.load_json("runs", "d1") == [{"ok": 2}]

    def test_corrupt_artifact_recomputed_by_fresh_session(self, store):
        scenario = smoke_scenario()
        first = Session(store=store).run_metrics(scenario)
        digest = scenario.point_digest(1)
        corrupt_artifact(store, "runs", digest)
        second = Session(store=store).run_metrics(scenario)
        assert [run.to_dict() for run in first] == [run.to_dict() for run in second]
        assert store.load_runs(digest) is not None

    def test_prune_sweeps_quarantine(self, store):
        store.save_json("runs", "d1", [1])
        corrupt_artifact(store, "runs", "d1")
        store.load_json("runs", "d1")
        assert quarantine_evidence(store)
        store.prune()
        assert not quarantine_evidence(store)

    def test_prune_kind_drops_that_layer_only(self, store):
        store.save_json("runs", "d1", [1])
        store.save_json("result", "d2", {"v": 1})
        removed = store.prune(kind="runs")
        assert removed >= 1
        assert not store.has("runs", "d1")
        assert store.has("result", "d2")

    def test_prune_trace_kind_removes_trace_files(self, store):
        write_fake_trace(store, "d1")
        store.save_json("result", "d2", {"v": 1})
        store.prune(kind="trace")
        assert not store.has_trace("d1")
        assert store.has("result", "d2")

    def test_clear_removes_everything(self, store):
        store.save_json("runs", "d1", [1])
        store.save_json("result", "d2", {"v": 1})
        write_fake_trace(store, "d3")
        removed = store.clear()
        assert removed >= 3
        assert not store.has("runs", "d1")
        assert not store.has("result", "d2")
        assert not store.has_trace("d3")
        assert store.stats() == {}

    def test_stats_counts_and_bytes(self, store):
        store.save_json("runs", "d1", [1, 2])
        store.save_json("runs", "d2", [3])
        store.save_json("result", "d3", {"v": 1})
        write_fake_trace(store, "d4")
        totals = store.stats()
        assert totals["runs"]["count"] == 2
        assert totals["result"]["count"] == 1
        assert totals["trace"]["count"] == 1
        for record in totals.values():
            assert record["bytes"] > 0

    def test_trace_check_and_quarantine(self, store):
        assert store.check_trace("missing") is False
        write_fake_trace(store, "good", [["dmg", 0.0, "p", "au", 1]])
        assert store.check_trace("good") is True
        path = write_fake_trace(store, "torn", complete=False)
        assert store.check_trace("torn") is False
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_iter_artifacts_yields_all_kinds(self, store):
        store.save_json("runs", "d1", [1])
        store.save_json("result", "d2", {"v": 2})
        found = {(kind, digest): payload for kind, digest, payload in store.iter_artifacts()}
        assert found == {("runs", "d1"): [1], ("result", "d2"): {"v": 2}}


def fake_runs(count):
    """``count`` distinct one-run artifacts as ``{digest: [RunMetrics]}``."""
    return {
        "d%d" % index: [
            RunMetrics(0.01 * index, 3600.0 + index, index, 1, 0, 2.5 * index, 0.0, 86400.0,
                       {"events_processed": float(index)})
        ]
        for index in range(count)
    }


def as_dicts(found):
    return {digest: [run.to_dict() for run in runs] for digest, runs in found.items()}


class TestBatchedRunReads:
    """``load_many_runs``: one read for many run digests, on both backends."""

    def test_backends_return_the_same_runs(self, tmp_path):
        runs = fake_runs(4)
        stores = [ResultStore(tmp_path / "store"), SQLiteResultStore(tmp_path / "s.db")]
        for store in stores:
            for digest, stored in runs.items():
                store.save_runs(digest, stored)
        found = [as_dicts(store.load_many_runs(["d2", "d0", "d3"])) for store in stores]
        assert found[0] == found[1] == as_dicts({d: runs[d] for d in ("d2", "d0", "d3")})

    def test_absent_digests_are_left_out(self, store):
        runs = fake_runs(2)
        for digest, stored in runs.items():
            store.save_runs(digest, stored)
        found = store.load_many_runs(["d0", "absent", "d1", "d0"])
        assert as_dicts(found) == as_dicts(runs)
        assert store.load_many_runs([]) == {}

    def test_a_store_without_runs_reads_every_digest_as_missing(self, store):
        assert store.load_many_runs(["d0", "d1"]) == {}

    def test_an_unreadable_payload_is_quarantined_and_missing(self, store):
        for digest, stored in fake_runs(3).items():
            store.save_runs(digest, stored)
        corrupt_artifact(store, "runs", "d1")
        store.save_json("runs", "d2", [{"not": "a run"}])
        assert set(store.load_many_runs(["d0", "d1", "d2"])) == {"d0"}
        assert quarantine_evidence(store)
        assert not store.has("runs", "d1")

    def test_a_request_larger_than_one_batch_is_split(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sqlite_store, "RUNS_PER_READ", 2)
        store = SQLiteResultStore(tmp_path / "s.db")
        runs = fake_runs(5)
        for digest, stored in runs.items():
            store.save_runs(digest, stored)
        statements = []
        store._conn.set_trace_callback(statements.append)
        found = store.load_many_runs(["d%d" % i for i in range(5)] + ["absent"])
        store._conn.set_trace_callback(None)
        assert as_dicts(found) == as_dicts(runs)
        assert [sql.split(" WHERE")[0] for sql in statements] == [
            'SELECT digest, payload FROM "artifact_runs"'
        ] * 3


finite = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**9)
run_metrics = st.builds(
    RunMetrics,
    finite, finite, counts, counts, counts, finite, finite, finite,
    st.dictionaries(st.text(max_size=8), finite, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(run=run_metrics)
def test_one_run_is_its_own_average(run):
    assert canonical_json(average_metrics([run]).to_dict()) == canonical_json(run.to_dict())


class TestSQLiteSpecifics:
    def test_invalid_kind_rejected(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "s.db")
        with pytest.raises(ValueError):
            store.save_json("bad-kind; DROP", "d1", {})
        with pytest.raises(ValueError):
            store.path_for("", "d1")

    def test_two_connections_share_one_file(self, tmp_path):
        path = tmp_path / "shared.db"
        first = SQLiteResultStore(path)
        second = SQLiteResultStore(path)
        first.save_json("result", "d1", {"v": 1})
        assert second.load_json("result", "d1") == {"v": 1}
        second.save_json("result", "d2", {"v": 2})
        assert first.has("result", "d2")

    def test_record_mode_traces_live_beside_the_database(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "s.db")
        scenario = smoke_scenario()
        Session(store=store, record=True).run_metrics(scenario)
        digest = scenario.point_digest(1)
        assert store.check_trace(digest)
        assert store.trace_path(digest).parent == tmp_path / "s.db.traces"


class TestOpenStore:
    def test_directory_reference(self, tmp_path):
        assert type(open_store(tmp_path / "plain")) is ResultStore

    @pytest.mark.parametrize("suffix", SQLITE_SUFFIXES)
    def test_sqlite_suffixes(self, tmp_path, suffix):
        store = open_store(tmp_path / ("results" + suffix))
        assert isinstance(store, SQLiteResultStore)

    def test_sqlite_prefix(self, tmp_path):
        store = open_store("sqlite:%s" % (tmp_path / "odd-name"))
        assert isinstance(store, SQLiteResultStore)

    def test_existing_file_sniffed_by_magic(self, tmp_path):
        # A SQLite database under an unconventional name still opens as one.
        path = tmp_path / "results.data"
        SQLiteResultStore(path).save_json("result", "d1", {"v": 1})
        store = open_store(path)
        assert isinstance(store, SQLiteResultStore)
        assert store.load_json("result", "d1") == {"v": 1}

    def test_passthrough_instance(self, tmp_path):
        original = ResultStore(tmp_path)
        assert open_store(original) is original

    def test_session_coerces_store_reference(self, tmp_path):
        session = Session(store=str(tmp_path / "auto.db"))
        assert isinstance(session.store, SQLiteResultStore)


class TestMigrate:
    def test_directory_to_sqlite_with_traces(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        scenario = smoke_scenario()
        Session(store=source, record=True).run_metrics(scenario)
        digest = scenario.point_digest(1)
        source.save_json("result", "r1", {"v": 1})
        dest = SQLiteResultStore(tmp_path / "dst.db")
        copied = migrate_store(source, dest)
        assert copied["runs"] == 1
        assert copied["result"] == 1
        assert copied["trace"] == 1
        assert dest.load_json("result", "r1") == {"v": 1}
        assert [r.to_dict() for r in dest.load_runs(digest)] == [
            r.to_dict() for r in source.load_runs(digest)
        ]
        assert dest.check_trace(digest)

    def test_sqlite_to_directory(self, tmp_path):
        source = SQLiteResultStore(tmp_path / "src.db")
        source.save_json("runs", "d1", [1, 2])
        dest = ResultStore(tmp_path / "dst")
        copied = migrate_store(source, dest)
        assert copied == {"runs": 1}
        assert dest.load_json("runs", "d1") == [1, 2]
