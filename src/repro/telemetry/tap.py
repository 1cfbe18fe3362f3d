"""The bus tracer, kept out of :mod:`repro.telemetry.stream` on purpose:
``serve`` and fleet workers import telemetry but never attach a bus to a
world, and a ``Tracer`` import in ``stream`` would make ``import repro.cli,
repro.service.http_api, repro.service.worker`` load ``repro.replay`` with
gzip and pickle (265 modules instead of 245).  ``attach_world_bus``
imports this module when it first attaches a bus to a world.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..replay.trace import Tracer
from .bus import EventBus
from .stream import RECORD_TOPICS

#: Records folded per summary event on the dense topics (``admission``,
#: ``damage``).  An admission flood emits hundreds of thousands of
#: records per run; publishing (or even buffering) each one costs
#: ~1-2us in simulation context — allocation churn plus megabytes of
#: retained record objects — which blows the <5% overhead budget.  The
#: bus tracer therefore *aggregates at the tap*: dense records fold into
#: per-topic counters (a dict increment, nothing retained) and publish
#: as one summary event per ``DENSE_FLUSH`` records plus a final partial
#: on :meth:`BusTracer.flush`.  Per-record fidelity at flood density is
#: the replay subsystem's job; live telemetry ships bounded-cost aggregates.
DENSE_FLUSH = 4096


class BusTracer(Tracer):
    """A :class:`Tracer` whose sink publishes into an :class:`EventBus`.

    The sparse taps (``poll``, ``window``, ``fault``) are inherited: the bus
    carries each record exactly as a trace file holds it, on its
    :data:`RECORD_TOPICS` topic.  ``send`` has no topic and is not wired.
    The dense taps (``admission``, ``damage``) fold into ``admsum`` /
    ``dmgsum`` summaries, one per :data:`DENSE_FLUSH` records; :meth:`flush`
    publishes the partial ones at the end of a run.
    """

    taps_send = False

    __slots__ = (
        "_subscribers",
        "_next_seq",
        "_run",
        "_adm_counts",
        "_adm_n",
        "_adm_t0",
        "_adm_t1",
        "_dmg_cells",
        "_dmg_n",
        "_dmg_t0",
        "_dmg_t1",
    )

    def __init__(self, simulator, bus: EventBus, run: Optional[str]) -> None:
        Tracer.__init__(self, simulator, sink=self._publish_record)
        self._subscribers = bus._subscribers
        self._next_seq = bus._counter.__next__
        self._run = run
        self._adm_counts: Dict[str, int] = {}
        self._adm_n = 0
        self._adm_t0 = 0.0
        self._adm_t1 = 0.0
        self._dmg_cells: Dict[tuple, int] = {}
        self._dmg_n = 0
        self._dmg_t0 = 0.0
        self._dmg_t1 = 0.0

    def _publish_record(self, record: List[object]) -> None:
        self._publish(RECORD_TOPICS[record[0]], record)

    def _publish(self, topic: str, data: object) -> None:
        subscribers = self._subscribers.get(topic)
        if not subscribers:
            return
        event = (self._next_seq(), topic, self._run, data)
        for subscription in subscribers:
            subscription._ring.append(event)
            subscription.delivered += 1

    def _flush_adm(self) -> None:
        if self._adm_n:
            self._publish(
                "admission",
                (
                    "admsum",
                    self._adm_t0,
                    self._adm_t1,
                    self._adm_n,
                    dict(self._adm_counts),
                ),
            )
            self._adm_counts.clear()
            self._adm_n = 0

    def _flush_dmg(self) -> None:
        if self._dmg_n:
            cells = tuple(
                (peer, au, count)
                for (peer, au), count in self._dmg_cells.items()
            )
            self._publish(
                "damage",
                ("dmgsum", self._dmg_t0, self._dmg_t1, self._dmg_n, cells),
            )
            self._dmg_cells.clear()
            self._dmg_n = 0

    def flush(self) -> None:
        """Publish any partial dense-topic aggregates (end of run)."""
        self._flush_adm()
        self._flush_dmg()

    # Voter/poller identities are deliberately dropped from admission
    # summaries; the heatmap's (peer, AU) cells survive in damage ones.

    def admission(self, now, voter, poller, decision) -> None:
        n = self._adm_n
        if n == 0:
            self._adm_t0 = now
        self._adm_n = n = n + 1
        self._adm_t1 = now
        counts = self._adm_counts
        try:
            counts[decision] += 1
        except KeyError:
            counts[decision] = 1
        if n >= DENSE_FLUSH:
            self._flush_adm()

    def damage(self, peer_id, au_id, block_index) -> None:
        now = self.simulator._now
        n = self._dmg_n
        if n == 0:
            self._dmg_t0 = now
        self._dmg_n = n = n + 1
        self._dmg_t1 = now
        cells = self._dmg_cells
        key = (peer_id, au_id)
        try:
            cells[key] += 1
        except KeyError:
            cells[key] = 1
        if n >= DENSE_FLUSH:
            self._flush_dmg()
