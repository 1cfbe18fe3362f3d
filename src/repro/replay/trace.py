"""Trace capture: the writer, reader, and world-side tap object.

Trace container
---------------
A trace is a stored (level-0) gzip stream; the gzip CRC and length
trailer are what make a truncated trace detectable.  The file keeps its
``.jsonl.gz`` name (``trace-<digest>.jsonl.gz`` in a result store) for
store-layout compatibility, although only its first line is JSON:

* line 1 — a JSON *header* object and ``\\n``: ``{"format", "version",
  "signature", "scenario", "seed", "baseline"}``, where ``scenario`` is
  the full :meth:`~repro.api.scenario.Scenario.to_dict` payload (traces
  are self-contained: replay rebuilds the world from the header alone);
* then binary *frames*, each opening with one tag byte: ``C`` — one
  chunk of up to 4096 records in emission (simulation) order — and,
  last, ``E`` — the footer: a ``<I`` byte length and the JSON array
  ``["end", time, events_processed, metrics_digest]``.

A ``C`` frame is the ``<IIIB`` header (record count ``n``, new-strings
byte length, ``win`` byte length, string-index width 2 or 4) followed by

1. the strings this chunk adds to the trace's running string table, as
   one JSON list (indices count across the whole trace, from 0);
2. ``n`` kind bytes, one per record (the code is the index in
   :data:`_KINDS`);
3. the chunk's ``win`` records as one JSON list (they hold
   variable-length lists);
4. for each kind of :data:`_LAYOUTS` in order, over that kind's records
   in the chunk: a ``float64`` column of times, one column of
   string-table indices per string field (``uint16``, or ``uint32`` once
   the table outgrows 16 bits), and one ``int32`` column per int field —
   all little-endian.

Every record is ``[kind, t, *strings, *ints]`` with JSON-native values,
so a decoded record compares ``==`` to the record a verifying replay
re-emits: times round-trip exactly through ``float64``, and an int that
does not fit ``int32`` is refused at flush, naming its kind and field.

Record grammar (``TRACE_VERSION`` 2)
------------------------------------
``["send", t, sender, recipient, payload, size]`` (``d s s s i``) — one
message put on the wire (``payload`` is the payload class name).

``["adm", t, voter, poller, decision]`` (``d s s s``) — one
admission-control decision (``decision`` is the
:class:`~repro.core.admission.AdmissionDecision` value string).

``["poll", t, peer, au, reason, success, alarm, inner_votes, agreeing,
disagreeing, repairs]`` (``d s s s i i i i i i``) — one concluded poll
(``t`` = conclusion time, ``success``/``alarm`` are 0/1).

``["dmg", t, peer, au, block]`` (``d s s i``) — one storage-failure block
damage event.

``["fault", t, subject, event]`` (``d s s``) — one fault-injection
transition (``subject`` is a peer id or ``"net"``; ``event`` is one of
``crash``, ``restart``, ``leave``, ``rejoin``, ``partition_start``,
``partition_end``, ``degrade``, ``restore``).  Only emitted by worlds
with an active fault plan.

``["win", t, node, index, active, victims]`` (JSON) — one adversary
attack window opening (``active`` = engaged vector indices, ``victims``
= target peer ids; both empty for an idle window).

Writers finalize atomically: records stream to ``<path>.tmp`` and the
finished trace is ``os.replace``d into place, so a killed run leaves an
orphan ``*.tmp`` (swept by ``ResultStore.prune``) rather than a truncated
trace that parses.  Readers check the header ``version`` before decoding
any body byte, read frame by frame with exact-length reads, and raise
:class:`~repro.replay.signature.SignatureMismatch` for a trace of another
version, a torn frame or a missing footer.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import sys
import zlib
from array import array
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from .signature import ReplaySignature, SignatureMismatch, TRACE_FORMAT, TRACE_VERSION

#: Records buffered before each chunk frame hits the gzip stream; keeps
#: the per-record cost of record mode to a list append + an occasional
#: columnar encode + write.
_WRITE_CHUNK = 4096

#: ``(string fields, int fields)`` of every fixed-layout kind, in column
#: order; each such record is ``[kind, t, *strings, *ints]``.  Kinds are in
#: name order, so one sort on the kind groups a chunk's records by code.
_LAYOUTS: Dict[str, Sequence[Sequence[str]]] = {
    "adm": (("voter", "poller", "decision"), ()),
    "dmg": (("peer", "au"), ("block",)),
    "fault": (("subject", "event"), ()),
    "poll": (
        ("peer", "au", "reason"),
        ("success", "alarm", "inner_votes", "agreeing", "disagreeing", "repairs"),
    ),
    "send": (("sender", "recipient", "payload"), ("size",)),
}

#: Kind byte ``code`` names ``_KINDS[code]``.
_KINDS = (*_LAYOUTS, "win")
assert list(_KINDS) == sorted(_KINDS)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_WIN = _KIND_CODES["win"]

_CHUNK = struct.Struct("<IIIB")
_FOOTER = struct.Struct("<I")
_INDEX_TYPES = {2: "H", 4: "I"}
_SWAP = sys.byteorder != "little"

#: Per-kind index of the peer-id field(s), for --peer filtering.
_PEER_FIELDS: Dict[str, Sequence[int]] = {
    "poll": (2,),
    "adm": (2, 3),
    "dmg": (2,),
    "win": (2,),
    "send": (2, 3),
    "fault": (2,),
}


def _dump(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _pack(column: array) -> bytes:
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _unpack(typecode: str, data: bytes) -> array:
    column = array(typecode)
    column.frombytes(data)
    if _SWAP:
        column.byteswap()
    return column


def _column(typecode: str, kind: str, records, first: int, names) -> array:
    """The fixed-width column of fields ``first..`` (``names``) of ``records``."""
    fields = range(first, first + len(names))
    try:
        return array(
            typecode, list(chain.from_iterable(map(itemgetter(j), records) for j in fields))
        )
    except (OverflowError, TypeError):
        for j, name in zip(fields, names):
            for record in records:
                try:
                    array(typecode, (record[j],))
                except (OverflowError, TypeError):
                    raise ValueError(
                        "trace record %r field %r holds %r, which does not fit %s"
                        % (kind, name, record[j], "int32" if typecode == "i" else "float64")
                    ) from None
        raise


def _dump_chunk(records: List[List[object]], strings: Dict[object, int]) -> bytes:
    """One ``C`` frame for ``records``; appends their new strings to ``strings``."""
    kind_bytes = bytes(map(_KIND_CODES.__getitem__, map(itemgetter(0), records)))
    ordered = sorted(records, key=itemgetter(0))
    groups = []
    start = 0
    for code, (kind, (string_fields, int_fields)) in enumerate(_LAYOUTS.items()):
        count = kind_bytes.count(code)
        if count:
            group = ordered[start : start + count]
            start += count
            values = list(
                chain.from_iterable(
                    map(itemgetter(j), group) for j in range(2, 2 + len(string_fields))
                )
            )
            groups.append((kind, group, values, string_fields, int_fields))
    wins = ordered[start:]

    # New strings are rare after the first chunk: find them with a set, then
    # put them in first-use order so the bytes are the same every run.
    used = [group[2] for group in groups]
    fresh = set().union(*used).difference(strings)
    new = []
    if fresh:
        new = [value for value in dict.fromkeys(chain.from_iterable(used)) if value in fresh]
    strings.update(zip(new, range(len(strings), len(strings) + len(new))))
    width = 2 if len(strings) <= 1 << 16 else 4
    index_type = _INDEX_TYPES[width]
    lookup = strings.__getitem__

    columns = []
    for kind, group, values, string_fields, int_fields in groups:
        columns.append(_column("d", kind, group, 1, ("t",)))
        columns.append(array(index_type, list(map(lookup, values))))
        if int_fields:
            columns.append(_column("i", kind, group, 2 + len(string_fields), int_fields))
    new_json, wins_json = _dump(new), _dump(wins)
    return b"".join(
        [
            b"C",
            _CHUNK.pack(len(records), len(new_json), len(wins_json), width),
            new_json,
            kind_bytes,
            wins_json,
        ]
        + [_pack(column) for column in columns]
    )


def _load_line(read: Callable[[int], bytes], strings: List[object]) -> List[List[object]]:
    """Decode the ``C`` frame after its tag: ``read(n)`` yields exactly ``n``
    body bytes; ``strings`` is the running string table, extended in place."""
    count, new_size, wins_size, width = _CHUNK.unpack(read(_CHUNK.size))
    strings.extend(json.loads(read(new_size)))
    kind_bytes = read(count)
    wins = json.loads(read(wins_size))
    counts = [kind_bytes.count(code) for code in range(len(_KINDS))]
    if sum(counts) != count or len(wins) != counts[_WIN]:
        raise ValueError("kind bytes disagree with the frame")
    index_type = _INDEX_TYPES[width]
    lookup = strings.__getitem__

    streams = []
    for (kind, (string_fields, int_fields)), n in zip(_LAYOUTS.items(), counts):
        if not n:
            streams.append(None)
            continue
        times = _unpack("d", read(8 * n))
        text = list(map(lookup, _unpack(index_type, read(width * n * len(string_fields)))))
        ints = _unpack("i", read(4 * n * len(int_fields)))
        columns = [text[i * n : (i + 1) * n] for i in range(len(string_fields))]
        columns += [ints[i * n : (i + 1) * n] for i in range(len(int_fields))]
        streams.append(map(list, zip(repeat(kind), times, *columns)))
    streams.append(iter(wins))
    return list(map(next, map(streams.__getitem__, kind_bytes)))


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

    Records are buffered raw (no per-record encoding on the simulation hot
    path); each full buffer is encoded column by column into one ``C``
    frame — a handful of C-level passes per ``_WRITE_CHUNK`` records —
    and only the strings the trace has not used yet are written out.

    ``sink`` is the buffer's bound ``append`` — the cheapest possible
    per-record path (one C call) — which is why :meth:`_flush` clears the
    buffer in place instead of rebinding it.  Size-triggered flushes are
    driven from the *cold* trace taps via :meth:`maybe_flush` (plus
    unconditionally at :meth:`close`), so the hot taps never pay for a
    length check.  :meth:`write` bundles append + size check for callers
    outside a :class:`Tracer`.

    The container is a stored (level-0) gzip: deflate at level 1 costs
    more wall time than every other part of record mode combined, and
    recording happens inside the run it must not slow down.  The packed
    body leaves little for deflate to win anyway.
    """

    def __init__(
        self,
        path,
        signature: ReplaySignature,
        scenario_dict: Dict[str, object],
        seed: int,
        baseline: bool,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_path = self.path.with_name(self.path.name + ".tmp")
        self._stream = gzip.open(self._tmp_path, "wb", compresslevel=0)
        self._buffer: List[List[object]] = []
        #: Per-record entry point for the hot taps; see the class docstring.
        self.sink = self._buffer.append
        #: The running string table: value -> index, in first-use order.
        self._strings: Dict[object, int] = {}
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
        self._stream.write(_dump(header) + b"\n")

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
        # Cleared in place — ``self.sink`` must stay bound to this list.
        buffer = self._buffer
        if buffer:
            self._stream.write(_dump_chunk(buffer, self._strings))
            self.records_written += len(buffer)
            buffer.clear()

    def close(self, time: float, events_processed: int, metrics_digest: str) -> Path:
        """Write the footer, flush, and atomically publish the trace."""
        if self._closed:
            raise RuntimeError("trace writer already closed")
        self._closed = True
        self._flush()
        footer = _dump(["end", time, int(events_processed), metrics_digest])
        self._stream.write(b"E" + _FOOTER.pack(len(footer)) + footer)
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
        try:
            header_line = self._stream.readline()
        except (EOFError, OSError, zlib.error) as exc:
            raise SignatureMismatch("trace %s is not a readable gzip stream: %s" % (self.path, exc))
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
        if self.header.get("version") != TRACE_VERSION:
            raise SignatureMismatch(
                "trace %s has version %s, this code reads %d"
                % (self.path, self.header.get("version"), TRACE_VERSION)
            )
        self.signature = ReplaySignature.from_dict(self.header.get("signature") or {})
        self.scenario_dict = self.header.get("scenario") or {}
        self.seed = int(self.header["seed"])
        self.baseline = bool(self.header["baseline"])
        #: The ``["end", time, events_processed, metrics_digest]`` footer;
        #: populated once :meth:`records` reaches it.
        self.footer: Optional[List[object]] = None
        self._strings: List[object] = []

    def _read_some(self, size: int) -> bytes:
        try:
            return self._stream.read(size)
        except (EOFError, OSError, zlib.error) as exc:
            raise SignatureMismatch("trace %s is truncated or corrupt: %s" % (self.path, exc))

    def _read(self, size: int) -> bytes:
        data = self._read_some(size)
        if len(data) != size:
            raise SignatureMismatch(
                "trace %s is torn: a frame ends after %d of %d bytes"
                % (self.path, len(data), size)
            )
        return data

    def records(self) -> Iterator[List[object]]:
        """Yield every body record in order; captures the footer at the end."""
        while True:
            tag = self._read_some(1)
            if tag == b"C":
                try:
                    chunk = _load_line(self._read, self._strings)
                except (ValueError, IndexError, KeyError, struct.error) as exc:
                    raise SignatureMismatch("trace %s has a corrupt frame: %s" % (self.path, exc))
                yield from chunk
            elif tag == b"E":
                (size,) = _FOOTER.unpack(self._read(_FOOTER.size))
                try:
                    footer = json.loads(self._read(size))
                except ValueError:
                    raise SignatureMismatch("trace %s has an unparsable footer" % self.path)
                # Reading on to the end checks the gzip CRC and length.
                if self._read_some(1):
                    raise SignatureMismatch("trace %s has bytes after its footer" % self.path)
                self.footer = footer
                return
            elif not tag:
                raise SignatureMismatch("trace %s has no footer (truncated?)" % self.path)
            else:
                raise SignatureMismatch("trace %s has an unknown frame tag %r" % (self.path, tag))

    def read_footer(self) -> List[object]:
        """Exhaust the stream if needed and return the footer record."""
        if self.footer is None:
            for _ in self.records():
                pass
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
