"""Digest-keyed persistent result artifacts.

A :class:`ResultStore` is a directory of small JSON files, each named by the
content digest of the configuration that produced it.  It replaces the old
``repr()``-keyed in-process baseline cache with artifacts that survive across
processes (a parallel session's workers and later invocations all hit the
same store) and across interpreter versions (the digest depends only on
field values, never on ``repr`` formatting).

Two JSON artifact kinds are written:

* ``runs-<digest>.json`` — a list of per-seed :class:`RunMetrics` for one
  resolved configuration (attacked or baseline).  A point's result is
  derived from its runs, so it is complete when all of them are here.
* ``campaign-<digest>.json`` — a campaign's manifest (see
  :func:`~repro.api.campaign.manifest_payload`).

Older stores may hold ``result-<digest>.json`` files too; nothing reads
them, and ``store prune --kind result`` removes them.

Record-mode sessions (see :mod:`repro.replay`) additionally persist one
``trace-<digest>.jsonl.gz`` per run — a gzipped replay trace keyed by the
same per-run digest as its ``runs`` artifact.  Prefix-forked campaigns
(see :mod:`repro.api.campaign`) persist one ``checkpoint-<digest>.ckpt.gz``
per shared baseline prefix — a gzipped pickle written by
:class:`~repro.replay.checkpoint.Checkpoint`, keyed by the prefix run
digest and fork time, reused by resumed campaigns and service workers.
Traces and checkpoints are binary artifacts handled by the replay
subsystem; the store only names, lists, and prunes them.

Writes are atomic (temp file + ``os.replace``); unreadable or corrupt
artifacts are treated as cache misses rather than errors.  A file that
exists but no longer parses (truncated by a crashed writer on a non-atomic
filesystem, bit-rotted, hand-edited) is *quarantined*: moved aside as
``<name>.corrupt`` so the next load recomputes it instead of tripping over
the same bad bytes forever.

This directory-of-files layout is one of two interchangeable backends.
:func:`open_store` selects between them by reference: a path ending in
``.db`` / ``.sqlite`` / ``.sqlite3`` (or prefixed ``sqlite:``) opens a
:class:`~repro.service.sqlite_store.SQLiteResultStore` — a single WAL-mode
database file that campaign-service brokers and workers on several
processes or machines can share — while anything else opens the plain
directory store.  Both backends honor the same save/load/has/quarantine/
prune contract (enforced by the backend-parity test suite) and both keep
replay traces as gzip files on disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..metrics.report import RunMetrics

#: Run digests per batched read (:meth:`ResultStore.load_many_runs`).  A
#: report holds at most this many runs at once, and one SQLite statement
#: binds at most this many parameters (SQLite's limit is 999 before 3.32).
RUNS_PER_READ = 500


class ArtifactKindError(ValueError):
    """An artifact kind no backend can name (empty, or a path or SQL fragment)."""


class ResultStore:
    """A directory of digest-keyed JSON artifacts."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- generic JSON artifacts ---------------------------------------------------------

    def path_for(self, kind: str, digest: str) -> Path:
        if not kind or "/" in kind or "\\" in kind:
            raise ArtifactKindError("invalid artifact kind %r" % kind)
        return self.root / ("%s-%s.json" % (kind, digest))

    def save_json(self, kind: str, digest: str, payload: object) -> Path:
        """Atomically write one artifact and return its path.

        The payload lands in a uniquely named temp file first and is moved
        into place with ``os.replace``, so concurrent writers (parallel
        campaign workers sharing one store) can never leave a torn JSON
        artifact under the final name — a reader sees the old content or
        the new, never a prefix.  Temp files orphaned by a kill are swept by
        :meth:`prune` (``repro-experiments store prune``).
        """
        path = self.path_for(kind, digest)
        try:
            handle, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=str(self.root)
            )
        except FileNotFoundError:
            # The store directory was removed out from under us (tmpdir
            # cleanup, aggressive prune); recreate it and retry once.
            self.root.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=str(self.root)
            )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(payload, tmp, indent=2, sort_keys=True)
                tmp.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def load_json(self, kind: str, digest: str) -> Optional[object]:
        """Read one artifact; missing files read as ``None``.

        A present-but-unreadable artifact (truncated or corrupt JSON) is
        quarantined to ``<name>.corrupt`` and reads as ``None``, so a bad
        artifact costs one recompute mid-campaign instead of raising.
        """
        path = self.path_for(kind, digest)
        try:
            with open(path, "rb") as handle:
                return json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt artifact aside as ``<name>.corrupt`` (best effort)."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
            return target
        except OSError:
            return None

    def has(self, kind: str, digest: str) -> bool:
        return self.path_for(kind, digest).exists()

    # -- run metrics --------------------------------------------------------------------

    def save_runs(self, digest: str, runs: List[RunMetrics]) -> Path:
        return self.save_json("runs", digest, [run.to_dict() for run in runs])

    def load_runs(self, digest: str) -> Optional[List[RunMetrics]]:
        return runs_from_payload(self.load_json("runs", digest))

    def load_many_runs(self, digests: Iterable[str]) -> Dict[str, List[RunMetrics]]:
        """The stored runs of each of ``digests``, by digest.

        A digest whose runs are missing or unreadable is left out (a corrupt
        artifact is quarantined as by :meth:`load_json`).  This backend reads
        one artifact at a time; the SQLite one reads :data:`RUNS_PER_READ`
        digests per statement.
        """
        found: Dict[str, List[RunMetrics]] = {}
        for digest in digests:
            runs = self.load_runs(digest)
            if runs is not None:
                found[digest] = runs
        return found

    # -- replay traces ------------------------------------------------------------------

    def trace_path(self, digest: str) -> Path:
        """Where the replay trace for per-run ``digest`` lives (may not exist)."""
        return self.root / ("trace-%s.jsonl.gz" % digest)

    def has_trace(self, digest: str) -> bool:
        return self.trace_path(digest).exists()

    def trace_paths(self) -> List[Path]:
        """All finished replay traces in the store (sorted by name)."""
        return sorted(self.root.glob("trace-*.jsonl.gz"))

    def check_trace(self, digest: str) -> bool:
        """True when the trace for ``digest`` is present, readable, and complete.

        Reads the trace through to its footer with the one trace reader.
        A missing trace reads as False; one of another version, truncated
        or corrupt (bad gzip stream, torn frame, no footer) is quarantined
        to ``<name>.corrupt`` and reads as False, so record-mode sessions
        regenerate it.
        """
        from ..replay.signature import SignatureMismatch
        from ..replay.trace import TraceReader

        path = self.trace_path(digest)
        if not path.exists():
            return False
        try:
            with TraceReader(path) as reader:
                reader.read_footer()
        except (SignatureMismatch, OSError, EOFError, ValueError):
            self._quarantine(path)
            return False
        return True

    # -- prefix checkpoints -------------------------------------------------------------

    def checkpoint_path(self, digest: str) -> Path:
        """Where the prefix checkpoint for ``digest`` lives (may not exist).

        Both backends keep checkpoints as gzip-pickle files next to the
        replay traces (the SQLite store's ``root`` is its sidecar trace
        directory), so one implementation serves the whole contract.
        """
        return self.root / ("checkpoint-%s.ckpt.gz" % digest)

    def checkpoint_paths(self) -> List[Path]:
        """All persisted prefix checkpoints in the store (sorted by name)."""
        return sorted(self.root.glob("checkpoint-*.ckpt.gz"))

    def checkpoint_digests(self) -> List[str]:
        """Digests of every persisted prefix checkpoint in the store."""
        prefix, suffix = "checkpoint-", ".ckpt.gz"
        return [
            path.name[len(prefix) : -len(suffix)] for path in self.checkpoint_paths()
        ]

    # -- housekeeping -------------------------------------------------------------------

    def artifacts(self) -> List[Path]:
        """All artifact files currently in the store (sorted by name)."""
        return (
            sorted(self.root.glob("*-*.json"))
            + self.trace_paths()
            + self.checkpoint_paths()
        )

    def iter_artifacts(self):
        """Yield ``(kind, digest, payload)`` for every readable JSON artifact.

        The migration path between backends: both stores implement this, so
        ``migrate_store`` can copy a JSON-file store into SQLite (or back)
        without knowing either layout.  Unreadable artifacts are skipped
        (and quarantined by ``load_json`` as usual).
        """
        for path in sorted(self.root.glob("*-*.json")):
            kind, _, rest = path.name.partition("-")
            digest = rest[: -len(".json")]
            if not kind or not digest:
                continue
            payload = self.load_json(kind, digest)
            if payload is not None:
                yield kind, digest, payload

    def trace_digests(self) -> List[str]:
        """Digests of every finished replay trace in the store."""
        prefix, suffix = "trace-", ".jsonl.gz"
        return [path.name[len(prefix) : -len(suffix)] for path in self.trace_paths()]

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind artifact counts and byte totals (traces included).

        Returns ``{kind: {"count": n, "bytes": b}}``; quarantined and torn
        temp files are reported under ``"quarantined"`` / ``"temp"`` so
        ``store stats`` surfaces what ``store prune`` would sweep.
        """
        totals: Dict[str, Dict[str, int]] = {}

        def tally(kind: str, size: int) -> None:
            record = totals.setdefault(kind, {"count": 0, "bytes": 0})
            record["count"] += 1
            record["bytes"] += size

        for path in sorted(self.root.glob("*-*.json")):
            kind = path.name.partition("-")[0]
            try:
                tally(kind, path.stat().st_size)
            except OSError:
                continue
        for path in self.trace_paths():
            try:
                tally("trace", path.stat().st_size)
            except OSError:
                continue
        for path in self.checkpoint_paths():
            try:
                tally("checkpoint", path.stat().st_size)
            except OSError:
                continue
        for pattern, kind in (("*.corrupt", "quarantined"), ("*.tmp", "temp")):
            for path in self.root.glob(pattern):
                try:
                    tally(kind, path.stat().st_size)
                except OSError:
                    continue
        return totals

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for path in self.artifacts():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, kind: Optional[str] = None) -> int:
        """Sweep orphaned temp files, plus all artifacts of ``kind`` if given.

        Killed or crashed campaign workers can leave ``*.tmp`` files behind
        (never under a final artifact name — writes are atomic, and trace
        writers stream to ``<name>.tmp`` until finalized); pruning removes
        them, along with any ``*.corrupt`` quarantine files.  With ``kind``
        (e.g. ``"runs"``, ``"campaign"``, ``"trace"``, ``"checkpoint"``, or
        a stale ``"result"``), every
        artifact of that kind is removed too, which invalidates exactly that
        cache layer without touching the others.  Returns the number of
        files removed.
        """
        targets = list(self.root.glob("*.tmp")) + list(self.root.glob("*.corrupt"))
        if kind == "trace":
            targets.extend(self.trace_paths())
        elif kind == "checkpoint":
            targets.extend(self.checkpoint_paths())
        elif kind is not None:
            # Validate the kind the same way path_for does.
            self.path_for(kind, "x")
            targets.extend(self.root.glob("%s-*.json" % kind))
        removed = 0
        for path in targets:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def runs_from_payload(payload: object) -> Optional[List[RunMetrics]]:
    """A ``runs`` artifact's payload as runs; None when it is not one."""
    if not isinstance(payload, list):
        return None
    try:
        return [RunMetrics.from_dict(item) for item in payload]
    except (KeyError, TypeError, ValueError):
        return None


#: Path suffixes that select the SQLite backend in :func:`open_store`.
SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: The 16-byte magic prefix of every SQLite database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def open_store(reference: Union[str, Path, "ResultStore"]) -> "ResultStore":
    """Open a result store by reference, selecting the backend.

    * an existing :class:`ResultStore` instance passes through unchanged;
    * ``sqlite:<path>`` or a path ending in ``.db`` / ``.sqlite`` /
      ``.sqlite3`` opens (creating if needed) a
      :class:`~repro.service.sqlite_store.SQLiteResultStore`;
    * an existing *file* that starts with the SQLite magic bytes opens the
      SQLite backend regardless of its name;
    * anything else opens the directory-of-JSON-files store.

    This is what every ``--store`` CLI flag resolves through, so
    ``--store results/`` and ``--store results.db`` pick their backend
    without further spelling.
    """
    if isinstance(reference, ResultStore):
        return reference
    path = sqlite_path(reference)
    if path is not None:
        # Imported lazily: the service subsystem depends on this module.
        from ..service.sqlite_store import SQLiteResultStore

        return SQLiteResultStore(path)
    return ResultStore(reference)


def sqlite_path(reference: Union[str, Path]) -> Optional[Path]:
    """The database file when ``reference`` selects the SQLite backend (see
    :func:`open_store`), else None; opens nothing and creates nothing."""
    text = str(reference)
    if text.startswith("sqlite:"):
        return Path(text[len("sqlite:") :])
    path = Path(text)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return path
    if not path.is_file():
        return None
    try:
        with open(path, "rb") as handle:
            return path if handle.read(16) == _SQLITE_MAGIC else None
    except OSError:
        return None


def migrate_store(source: "ResultStore", dest: "ResultStore") -> Dict[str, int]:
    """Copy every artifact of ``source`` into ``dest`` (either direction).

    JSON artifacts are re-saved through ``dest.save_json`` (so the SQLite
    backend rows and the directory files round-trip each other), and replay
    traces are copied byte for byte.  Artifacts already present in ``dest``
    are overwritten — both backends key by content digest, so an overwrite
    can only replace equal content or heal a stale copy.  Returns per-kind
    copy counts (traces under ``"trace"``).
    """
    import shutil

    copied: Dict[str, int] = {}
    for kind, digest, payload in source.iter_artifacts():
        dest.save_json(kind, digest, payload)
        copied[kind] = copied.get(kind, 0) + 1
    for digest in source.trace_digests():
        source_path = source.trace_path(digest)
        target = dest.trace_path(digest)
        try:
            shutil.copyfile(source_path, target)
        except OSError:
            continue
        copied["trace"] = copied.get("trace", 0) + 1
    for digest in source.checkpoint_digests():
        try:
            shutil.copyfile(
                source.checkpoint_path(digest), dest.checkpoint_path(digest)
            )
        except OSError:
            continue
        copied["checkpoint"] = copied.get("checkpoint", 0) + 1
    return copied
