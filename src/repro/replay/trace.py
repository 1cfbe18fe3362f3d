"""Trace capture: the writer, reader, and world-side tap object.

Trace container
---------------
A trace is a gzipped, line-oriented file:

* line 1 — a JSON *header* object: ``{"format", "version", "signature",
  "scenario", "seed", "baseline"}``, where ``scenario`` is the full
  :meth:`~repro.api.scenario.Scenario.to_dict` payload (traces are
  self-contained: replay rebuilds the world from the header alone);
* lines 2..N — JSON arrays in emission (simulation) order: either one
  *record* (first element is the kind string) or one *chunk* — an array
  of records batch-serialized together (first element is a list).
  Readers flatten chunks transparently;
* last line — the *footer* record ``["end", time, events_processed,
  metrics_digest]`` (always its own line, never inside a chunk).

Every record is built exclusively from JSON-native values (str, int,
float, list), so a parsed record compares ``==`` to the record a verifying
replay re-emits — floats round-trip exactly through ``json``'s repr-based
serialization.

Record grammar (``TRACE_VERSION`` 1)
------------------------------------
``["poll", t, peer, au, reason, success, alarm, inner_votes, agreeing,
disagreeing, repairs]`` — one concluded poll (``t`` = conclusion time,
``success``/``alarm`` are 0/1).

``["adm", t, voter, poller, decision]`` — one admission-control decision
(``decision`` is the :class:`~repro.core.admission.AdmissionDecision`
value string).

``["dmg", t, peer, au, block]`` — one storage-failure block damage event.

``["win", t, node, index, active, victims]`` — one adversary attack
window opening (``active`` = engaged vector indices, ``victims`` = target
peer ids; both empty for an idle window).

``["send", t, sender, recipient, payload, size]`` — one message put on
the wire (``payload`` is the payload class name).

``["fault", t, subject, event]`` — one fault-injection transition
(``subject`` is a peer id or ``"net"``; ``event`` is one of ``crash``,
``restart``, ``leave``, ``rejoin``, ``partition_start``,
``partition_end``, ``degrade``, ``restore``).  Only emitted by worlds
with an active fault plan, so fault-free traces are unchanged.

Writers finalize atomically: records stream to ``<path>.tmp`` and the
finished trace is ``os.replace``d into place, so a killed run leaves an
orphan ``*.tmp`` (swept by ``ResultStore.prune``) rather than a truncated
trace that parses.
"""

from __future__ import annotations

import gzip
import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from .signature import ReplaySignature, SignatureMismatch, TRACE_FORMAT, TRACE_VERSION

# orjson (when the interpreter ships it) serializes a record ~6x faster
# than the stdlib and emits byte-identical compact JSON for the
# str/int/float/list values traces are built from; record mode's <10%
# overhead budget is spent mostly here, so take the fast path when we can.
try:  # pragma: no cover - exercised implicitly by every trace test
    import orjson as _orjson
except ImportError:  # pragma: no cover - stdlib fallback
    _orjson = None

#: Records buffered before each chunk line hits the gzip stream; keeps
#: the per-record cost of record mode to a list append + an occasional
#: one-call batch serialize + write.
_WRITE_CHUNK = 4096

#: Per-kind index of the peer-id field(s), for --peer filtering.
_PEER_FIELDS: Dict[str, Sequence[int]] = {
    "poll": (2,),
    "adm": (2, 3),
    "dmg": (2,),
    "win": (2,),
    "send": (2, 3),
    "fault": (2,),
}


def _dump(payload: object) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


if _orjson is not None:
    _dump_record = _orjson.dumps
    _load_line = _orjson.loads
else:

    def _dump_record(record: List[object]) -> bytes:
        return json.dumps(record, separators=(",", ":")).encode("utf-8")

    _load_line = json.loads


class Tracer:
    """The per-world tap object: typed hooks funnelling into one sink.

    A tracer is attached to a world with :func:`attach_tracer`; each tap
    site holds a ``tracer`` attribute that is ``None`` when recording is
    off, so the record-off cost is one attribute load and branch.  The
    tracer itself draws no randomness and never perturbs simulation state,
    which is what keeps record-on runs digest-identical to record-off runs.

    Tap methods are deliberately lean — one record-list build and one sink
    call, no indirection.  The hottest record, ``send``, has no method: the
    network builds it in place and calls ``sink`` directly.  When the sink
    is a :class:`TraceWriter` buffer, ``writer`` is set too and the *cold*
    taps (``poll``, ``dmg``, ``fault``) drive the writer's size-triggered
    flushes, keeping the hot taps to a bare append.
    """

    __slots__ = ("simulator", "sink", "writer")

    #: Whether :func:`attach_tracer` wires the network ``send`` tap, which
    #: fires for every message.  A subclass with no use for ``send``
    #: records sets this False so that site keeps its bare ``None``.
    taps_send = True

    def __init__(
        self,
        simulator,
        sink: Callable[[List[object]], None],
        writer: Optional["TraceWriter"] = None,
    ) -> None:
        self.simulator = simulator
        self.sink = sink
        self.writer = writer

    # -- tap methods (one per record kind) ---------------------------------------

    def poll(self, record) -> None:
        """Tap: :meth:`repro.metrics.polls.PollStatistics.record_poll`."""
        self.sink(
            [
                "poll",
                record.concluded_at,
                record.peer_id,
                record.au_id,
                record.reason,
                1 if record.success else 0,
                1 if record.alarm else 0,
                record.inner_votes,
                record.agreeing,
                record.disagreeing,
                record.repairs,
            ]
        )
        if self.writer is not None:
            self.writer.maybe_flush()

    def admission(self, now: float, voter: str, poller: str, decision: str) -> None:
        """Tap: voter-side admission decisions in ``Peer._handle_poll_invitation``."""
        self.sink(["adm", now, voter, poller, decision])

    def damage(self, peer_id: str, au_id: str, block_index: int) -> None:
        """Tap: installed as the :class:`StorageFailureModel` damage hook."""
        self.sink(["dmg", self.simulator._now, peer_id, au_id, block_index])
        if self.writer is not None:
            self.writer.maybe_flush()

    def window(
        self,
        now: float,
        node_id: str,
        index: int,
        active: Sequence[int],
        victims: Sequence[str],
    ) -> None:
        """Tap: :meth:`repro.adversary.composed.ComposedAdversary._begin_window`."""
        self.sink(["win", now, node_id, index, list(active), list(victims)])

    def fault(self, now: float, subject: str, event: str) -> None:
        """Tap: :class:`repro.faults.engine.FaultEngine` state transitions."""
        self.sink(["fault", now, subject, event])
        if self.writer is not None:
            self.writer.maybe_flush()


def attach_tracer(world, tracer: Optional[Tracer]) -> None:
    """Wire ``tracer`` into every tap site of ``world``; ``None`` unhooks them.

    The one list of tap sites: the poll collector, the network ``send``
    tap (only when ``tracer.taps_send``), every peer's admission tap, the
    adversary's window tap, the fault engine and the storage-failure
    damage hook.  Replaces any damage hook already installed (the tracer
    owns that hook while attached).
    """
    world.tracer = tracer
    world.collector.tracer = tracer
    world.network.tracer = tracer if tracer is not None and tracer.taps_send else None
    for peer in world.peers:
        peer.tracer = tracer
    if world.adversary is not None and hasattr(world.adversary, "tracer"):
        world.adversary.tracer = tracer
    if getattr(world, "fault_engine", None) is not None:
        world.fault_engine.tracer = tracer
    world.failure_model.set_damage_hook(None if tracer is None else tracer.damage)


def detach_tracer(world) -> None:
    """Unhook any tracer from ``world`` (taps revert to zero-cost ``None``).

    Required before :meth:`Checkpoint.capture`: a tracer holds an open file
    sink that cannot be deep-copied.
    """
    attach_tracer(world, None)


class TraceWriter:
    """Streams trace records to ``<path>.tmp``; finalizes atomically to ``path``.

    Records are buffered raw (no per-record serialization on the simulation
    hot path); each full buffer is batch-serialized into one chunk line —
    a single serializer call per ``_WRITE_CHUNK`` records.

    ``sink`` is the buffer's bound ``append`` — the cheapest possible
    per-record path (one C call) — which is why :meth:`_flush` clears the
    buffer in place instead of rebinding it.  Size-triggered flushes are
    driven from the *cold* trace taps via :meth:`maybe_flush` (plus
    unconditionally at :meth:`close`), so the hot taps never pay for a
    length check.  :meth:`write` bundles append + size check for callers
    outside a :class:`Tracer`.

    The default ``compresslevel`` is 0: a stored (uncompressed) gzip
    container.  Deflate at level 1 costs more wall time than every other
    part of record mode combined, and recording happens inside the run it
    must not slow down; traces are opt-in debug artifacts, so they default
    to fast-and-large.  Pass ``compresslevel=1``..``9`` to trade recording
    speed for size — readers accept any level.  (A background compression
    thread was tried and rejected: zlib does release the GIL, but
    single-core runners gain nothing from the overlap and pay for the
    context switching.)
    """

    def __init__(
        self,
        path,
        signature: ReplaySignature,
        scenario_dict: Dict[str, object],
        seed: int,
        baseline: bool,
        compresslevel: int = 0,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_path = self.path.with_name(self.path.name + ".tmp")
        self._stream = gzip.open(self._tmp_path, "wb", compresslevel=compresslevel)
        self._buffer: List[List[object]] = []
        #: Per-record entry point for the hot taps; see the class docstring.
        self.sink = self._buffer.append
        self._closed = False
        self.records_written = 0
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "signature": signature.to_dict(),
            "scenario": scenario_dict,
            "seed": int(seed),
            "baseline": bool(baseline),
        }
        self._stream.write(_dump(header).encode("utf-8") + b"\n")

    def write(self, record: List[object]) -> None:
        buffer = self._buffer
        buffer.append(record)
        if len(buffer) >= _WRITE_CHUNK:
            self._flush()

    def maybe_flush(self) -> None:
        """Flush if the buffer has reached the chunk size."""
        if len(self._buffer) >= _WRITE_CHUNK:
            self._flush()

    def _flush(self) -> None:
        # The whole buffer becomes one chunk line: a single serializer
        # call amortizes per-record serialization down to its floor.
        # Cleared in place — ``self.sink`` must stay bound to this list.
        buffer = self._buffer
        if buffer:
            self._stream.write(_dump_record(buffer) + b"\n")
            self.records_written += len(buffer)
            buffer.clear()

    def close(self, time: float, events_processed: int, metrics_digest: str) -> Path:
        """Write the footer, flush, and atomically publish the trace."""
        if self._closed:
            raise RuntimeError("trace writer already closed")
        self._closed = True
        self._flush()
        footer = ["end", time, int(events_processed), metrics_digest]
        self._stream.write(_dump_record(footer) + b"\n")
        self._stream.close()
        os.replace(self._tmp_path, self.path)
        return self.path

    def abort(self) -> None:
        """Discard the partial trace (failed or interrupted run)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._stream.close()
        finally:
            try:
                self._tmp_path.unlink()
            except FileNotFoundError:
                pass


class TraceReader:
    """Reads a finished trace: header eagerly, records lazily."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._stream = gzip.open(self.path, "rb")
        header_line = self._stream.readline()
        if not header_line:
            raise SignatureMismatch("trace %s is empty" % self.path)
        try:
            self.header = json.loads(header_line)
        except ValueError:
            raise SignatureMismatch("trace %s has an unparsable header" % self.path)
        if self.header.get("format") != TRACE_FORMAT:
            raise SignatureMismatch(
                "trace %s has format %r, expected %r"
                % (self.path, self.header.get("format"), TRACE_FORMAT)
            )
        self.signature = ReplaySignature.from_dict(self.header.get("signature") or {})
        self.scenario_dict = self.header.get("scenario") or {}
        self.seed = int(self.header["seed"])
        self.baseline = bool(self.header["baseline"])
        #: The ``["end", time, events_processed, metrics_digest]`` footer;
        #: populated once :meth:`records` reaches it.
        self.footer: Optional[List[object]] = None

    def records(self) -> Iterator[List[object]]:
        """Yield every body record in order; captures the footer at the end.

        Chunk lines (arrays of records) are flattened transparently.
        """
        for line in self._stream:
            record = _load_line(line)
            if record and isinstance(record[0], list):
                yield from record
                continue
            if record and record[0] == "end":
                self.footer = record
                return
            yield record

    def read_footer(self) -> List[object]:
        """Exhaust the stream if needed and return the footer record."""
        if self.footer is None:
            for _ in self.records():
                pass
        if self.footer is None:
            raise SignatureMismatch("trace %s has no footer (truncated?)" % self.path)
        return self.footer

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_records(path) -> Iterator[List[object]]:
    """Yield the body records of the trace at ``path``."""
    with TraceReader(path) as reader:
        for record in reader.records():
            yield record


def filter_records(
    records: Iterable[List[object]],
    kinds: Optional[Sequence[str]] = None,
    peer: Optional[str] = None,
    start: Optional[float] = None,
    until: Optional[float] = None,
) -> Iterator[List[object]]:
    """Filter trace records by kind, involved peer id, and time window."""
    kind_set = set(kinds) if kinds else None
    for record in records:
        kind, time = record[0], record[1]
        if kind_set is not None and kind not in kind_set:
            continue
        if start is not None and time < start:
            continue
        if until is not None and time >= until:
            continue
        if peer is not None:
            fields = _PEER_FIELDS.get(kind, ())
            if not any(record[i] == peer for i in fields):
                continue
        yield record
