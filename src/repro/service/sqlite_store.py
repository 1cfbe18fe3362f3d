"""SQLite-backed result store.

A :class:`SQLiteResultStore` implements the
:class:`~repro.api.store.ResultStore` contract on a single WAL-mode SQLite
database file instead of a directory of JSON files:

* one table per artifact kind (``artifact_runs``, ``artifact_campaign``,
  ...), each row ``(digest, payload, bytes, updated)`` with the payload
  stored as canonical-ish JSON text;
* replay traces stay as gzip **files on disk** in a sibling
  ``<name>.traces/`` directory — they are written incrementally by the
  replay tracer and can reach many megabytes, which SQLite rows handle
  poorly and the existing trace machinery already handles well;
* a ``quarantine`` table mirrors the directory store's ``<name>.corrupt``
  files: a row whose payload no longer parses is moved there and reads as
  a cache miss, so one corrupt row costs one recompute instead of a
  persistent error.

WAL journaling plus a generous busy timeout make the file safely shareable
between the broker, several worker processes, and machines mounting the
same filesystem — exactly the concurrency profile of the campaign
execution service (see docs/SERVICE.md).  All access from one process goes
through a single connection guarded by an RLock, so the threaded HTTP
server can use one store instance directly.  :meth:`checkpoint` merges the
WAL back into the database file without waiting on other connections, and
the last connection's :meth:`close` removes it: an idle or closed store is
the ``.db`` file alone.
"""

from __future__ import annotations

import json
import re
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..api.store import RUNS_PER_READ, ArtifactKindError, ResultStore, runs_from_payload
from ..metrics.report import RunMetrics

#: Artifact kinds become table names, so they are restricted to identifier
#: characters (the directory backend's kinds — runs/campaign — qualify).
_KIND_RE = re.compile(r"^[A-Za-z0-9_]+$")


class SQLiteResultStore(ResultStore):
    """A digest-keyed artifact store in one WAL-mode SQLite file."""

    def __init__(self, path: Union[str, Path], busy_timeout: float = 30.0) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # ``root`` points at the on-disk trace directory so every inherited
        # trace helper (trace_path/has_trace/trace_paths/check_trace and the
        # file side of prune) works unchanged.
        self.root = self.path.with_name(self.path.name + ".traces")
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: open :meth:`transaction` blocks (only the lock holder changes it)
        self._depth = 0
        self._busy_ms = int(busy_timeout * 1000)
        self._conn = sqlite3.connect(
            str(self.path), timeout=busy_timeout, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=%d" % self._busy_ms)
        self._known_tables: set = set()
        self.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            " kind TEXT NOT NULL, digest TEXT NOT NULL, payload TEXT,"
            " reason TEXT, quarantined REAL NOT NULL,"
            " PRIMARY KEY (kind, digest))"
        )

    # -- low-level access (also used by the service broker) ------------------------------

    def execute(self, sql: str, params: Tuple = ()) -> sqlite3.Cursor:
        """Run one statement under the store lock; commit a write on its own.

        Inside :meth:`transaction` the statement joins the open transaction
        and nothing is committed until it ends; a read never commits.  The
        broker builds its lease tables in the same database through this
        helper, so store and manifest updates share one lock, one
        connection, and SQLite's cross-process WAL locking.
        """
        with self._lock:
            cursor = self._conn.execute(sql, params)
            if not self._depth and self._conn.in_transaction:
                self._conn.commit()
            return cursor

    def transaction(self):
        """Context manager: an IMMEDIATE transaction under the store lock.

        ``BEGIN IMMEDIATE`` takes the database write lock up front, which
        makes read-then-update sequences (the broker's lease acquisition)
        atomic across processes sharing the file.  Transactions nest: an
        inner one (and every :meth:`execute`, ``save_json`` or ``has`` made
        inside) joins the outermost, which alone commits or rolls back — so
        the broker closes a batch of leases and writes all their artifacts
        in one commit.
        """
        return _Transaction(self)

    @staticmethod
    def _table(kind: str) -> str:
        if not _KIND_RE.match(kind or ""):
            raise ArtifactKindError("invalid artifact kind %r" % kind)
        return "artifact_%s" % kind

    def _ensure_table(self, kind: str) -> str:
        table = self._table(kind)
        if table not in self._known_tables:
            self.execute(
                'CREATE TABLE IF NOT EXISTS "%s" ('
                " digest TEXT PRIMARY KEY, payload TEXT NOT NULL,"
                " bytes INTEGER NOT NULL, updated REAL NOT NULL)" % table
            )
            self._known_tables.add(table)
        return table

    def kinds(self) -> List[str]:
        """Artifact kinds with a table in the database (sorted)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
                " AND name LIKE 'artifact_%'"
            ).fetchall()
        return sorted(name[len("artifact_") :] for (name,) in rows)

    # -- ResultStore contract: JSON artifacts --------------------------------------------

    def path_for(self, kind: str, digest: str) -> Path:
        """The database path (rows have no per-artifact file).

        Kept so error messages and logs can still name *where* an artifact
        lives; kind validation matches the directory backend's.
        """
        self._table(kind)
        return self.path

    def save_json(self, kind: str, digest: str, payload: object) -> Path:
        table = self._ensure_table(kind)
        text = json.dumps(payload, sort_keys=True)
        self.execute(
            'INSERT OR REPLACE INTO "%s" (digest, payload, bytes, updated)'
            " VALUES (?, ?, ?, ?)" % table,
            (digest, text, len(text.encode("utf-8")), time.time()),
        )
        return self.path

    def load_json(self, kind: str, digest: str) -> Optional[object]:
        """Read one artifact row; missing rows read as ``None``.

        A present-but-unparsable payload is moved to the ``quarantine``
        table (the SQLite analogue of ``<name>.corrupt``) and reads as
        ``None`` so the caller recomputes it.
        """
        table = self._table(kind)
        with self._lock:
            try:
                row = self._conn.execute(
                    'SELECT payload FROM "%s" WHERE digest = ?' % table, (digest,)
                ).fetchone()
            except sqlite3.OperationalError:
                return None  # table never created: a plain miss
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError as error:
            self._quarantine_row(kind, digest, row[0], str(error))
            return None

    def load_many_runs(self, digests: Iterable[str]) -> Dict[str, List[RunMetrics]]:
        """The stored runs of each of ``digests``: one ``SELECT ... IN`` per
        :data:`~repro.api.store.RUNS_PER_READ` digests.  Missing and
        unreadable runs are left out; an unparsable payload is quarantined
        as by :meth:`load_json`."""
        wanted = list(dict.fromkeys(digests))
        found: Dict[str, List[RunMetrics]] = {}
        for start in range(0, len(wanted), RUNS_PER_READ):
            batch = wanted[start : start + RUNS_PER_READ]
            with self._lock:
                try:
                    rows = self._conn.execute(
                        'SELECT digest, payload FROM "artifact_runs"'
                        " WHERE digest IN (%s)" % ",".join("?" * len(batch)),
                        batch,
                    ).fetchall()
                except sqlite3.OperationalError:
                    return found  # table never created: every digest a miss
            for digest, text in rows:
                try:
                    payload = json.loads(text)
                except ValueError as error:
                    self._quarantine_row("runs", digest, text, str(error))
                    continue
                runs = runs_from_payload(payload)
                if runs is not None:
                    found[digest] = runs
        return found

    def _quarantine_row(
        self, kind: str, digest: str, payload: Optional[str], reason: str
    ) -> None:
        with self.transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO quarantine"
                " (kind, digest, payload, reason, quarantined) VALUES (?, ?, ?, ?, ?)",
                (kind, digest, payload, reason, time.time()),
            )
            conn.execute(
                'DELETE FROM "%s" WHERE digest = ?' % self._table(kind), (digest,)
            )

    def has(self, kind: str, digest: str) -> bool:
        table = self._table(kind)
        with self._lock:
            try:
                row = self._conn.execute(
                    'SELECT 1 FROM "%s" WHERE digest = ?' % table, (digest,)
                ).fetchone()
            except sqlite3.OperationalError:
                return False
        return row is not None

    # -- migration / inspection ----------------------------------------------------------

    def iter_artifacts(self) -> Iterator[Tuple[str, str, object]]:
        for kind in self.kinds():
            with self._lock:
                rows = self._conn.execute(
                    'SELECT digest, payload FROM "%s" ORDER BY digest'
                    % self._table(kind)
                ).fetchall()
            for digest, text in rows:
                try:
                    yield kind, digest, json.loads(text)
                except ValueError as error:
                    self._quarantine_row(kind, digest, text, str(error))

    def stats(self) -> Dict[str, Dict[str, int]]:
        totals: Dict[str, Dict[str, int]] = {}
        for kind in self.kinds():
            with self._lock:
                count, size = self._conn.execute(
                    'SELECT COUNT(*), COALESCE(SUM(bytes), 0) FROM "%s"'
                    % self._table(kind)
                ).fetchone()
            if count:
                totals[kind] = {"count": count, "bytes": size}
        for path in self.trace_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            record = totals.setdefault("trace", {"count": 0, "bytes": 0})
            record["count"] += 1
            record["bytes"] += size
        for path in self.checkpoint_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            record = totals.setdefault("checkpoint", {"count": 0, "bytes": 0})
            record["count"] += 1
            record["bytes"] += size
        with self._lock:
            count, size = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(COALESCE(payload, ''))), 0)"
                " FROM quarantine"
            ).fetchone()
        if count:
            totals["quarantined"] = {"count": count, "bytes": size}
        for pattern, kind in (("*.corrupt", "quarantined"), ("*.tmp", "temp")):
            for path in self.root.glob(pattern):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                record = totals.setdefault(kind, {"count": 0, "bytes": 0})
                record["count"] += 1
                record["bytes"] += size
        return totals

    # -- housekeeping --------------------------------------------------------------------

    def clear(self) -> int:
        """Delete every artifact row and trace/checkpoint file; returns the count."""
        removed = 0
        for kind in self.kinds():
            cursor = self.execute('DELETE FROM "%s"' % self._table(kind))
            removed += cursor.rowcount
        removed += self.execute("DELETE FROM quarantine").rowcount
        for path in self.trace_paths() + self.checkpoint_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, kind: Optional[str] = None) -> int:
        """Sweep quarantined rows and torn trace files, plus one kind if given.

        Mirrors the directory backend: the always-swept set is whatever a
        crash or corruption left behind (quarantine rows, ``*.tmp`` /
        ``*.corrupt`` trace files); ``kind`` additionally drops that whole
        artifact layer (``"trace"`` removes the trace files).
        """
        removed = self.execute("DELETE FROM quarantine").rowcount
        targets = list(self.root.glob("*.tmp")) + list(self.root.glob("*.corrupt"))
        if kind == "trace":
            targets.extend(self.trace_paths())
        elif kind == "checkpoint":
            # Checkpoints are files beside the traces, never artifact rows;
            # the generic branch would create a junk table for them.
            targets.extend(self.checkpoint_paths())
        elif kind is not None:
            removed += self.execute('DELETE FROM "%s"' % self._ensure_table(kind)).rowcount
        for path in targets:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def checkpoint(self) -> None:
        """Merge the WAL into the database file and truncate it, if that can
        be done without waiting.

        Another connection's open read transaction (a worker sharing the
        file, a report reading it) makes SQLite report the checkpoint busy;
        with the busy timeout off for this one statement that answer comes
        at once and the checkpoint is skipped, not retried — the next idle
        point or the last connection's :meth:`close` merges the WAL.
        """
        with self._lock:
            if self._depth:
                return
            self._conn.execute("PRAGMA busy_timeout=0")
            try:
                # A busy checkpoint answers with a row (busy=1) or raises.
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
            except sqlite3.OperationalError:
                pass
            finally:
                self._conn.execute("PRAGMA busy_timeout=%d" % self._busy_ms)

    def close(self) -> None:
        """Close the connection; the last one closed merges and removes the WAL."""
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SQLiteResultStore(%r)" % str(self.path)


class _Transaction:
    """``BEGIN IMMEDIATE`` ... ``COMMIT``/``ROLLBACK`` under the store lock.

    Re-entrant: only the outermost block begins and ends the transaction.
    """

    def __init__(self, store: SQLiteResultStore) -> None:
        self.store = store

    def __enter__(self) -> sqlite3.Connection:
        store = self.store
        store._lock.acquire()
        if not store._depth:
            try:
                store._conn.execute("BEGIN IMMEDIATE")
            except BaseException:
                store._lock.release()
                raise
        store._depth += 1
        return store._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        store = self.store
        store._depth -= 1
        try:
            if store._depth:
                return
            if exc_type is None:
                store._conn.commit()
            else:
                store._conn.rollback()
                # A table created inside the rolled-back transaction is gone.
                store._known_tables.clear()
        finally:
            store._lock.release()
