"""Discrete-event simulation engine.

A minimal but complete event-driven simulator: events are ``(time, priority,
sequence)``-ordered callbacks kept in a binary heap.  Events can be cancelled,
the clock only moves forward, and helpers exist for periodic processes (used
by metric samplers and by adversary attack/recuperation cycles).

The engine is deliberately free of any LOCKSS-specific behaviour so it can be
reused by the network model, the storage-failure injector, the protocol state
machines, and the adversaries alike.

Fast-path design
----------------
The heap holds plain lists ``[time, priority, seq, callback, args, handle,
in_queue]`` rather than handle objects, so ``heapq`` compares entries with C
tuple comparison instead of a Python ``__lt__`` (``seq`` is unique, so the
comparison never reaches the callback).  :class:`EventHandle` is a thin
cancellation token wrapping its entry; fire-and-forget call sites can skip it
entirely via :meth:`Simulator.post` / :meth:`Simulator.post_at`.  Cancelled
entries are dropped lazily when popped, with a compaction pass that rebuilds
the heap once cancellations dominate it.  Recurring events re-arm through a
freelist of recycled handles, so periodic processes allocate nothing per tick.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

#: Version of the engine's event-ordering semantics.  Replay signatures pin
#: it: a trace recorded under one kernel version refuses to silently replay
#: under another whose event interleaving may differ.  Bump it whenever a
#: change could alter the (time, priority, seq) ordering or callback
#: sequencing of existing scenarios (version 2 = the fast-path kernel of the
#: benchmark baseline).
KERNEL_VERSION = 2

# Entry layout (a list, so cancellation can mutate it in place):
_TIME = 0
_PRIORITY = 1
_SEQ = 2
_CALLBACK = 3  # None once cancelled or consumed
_ARGS = 4
_HANDLE = 5  # EventHandle or None (fire-and-forget)
_IN_QUEUE = 6  # False once popped (keeps the cancel bookkeeping exact)


class SimulationError(RuntimeError):
    """Raised when the simulation is used incorrectly.

    Examples include scheduling an event in the past or running a simulator
    that has already been stopped.
    """


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("time", "priority", "seq", "cancelled", "_entry", "_simulator")

    def __init__(self, simulator: "Simulator", entry: list) -> None:
        self.time = entry[_TIME]
        self.priority = entry[_PRIORITY]
        self.seq = entry[_SEQ]
        self.cancelled = False
        self._entry = entry
        self._simulator = simulator

    def cancel(self) -> None:
        """Cancel the event; it will be skipped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        entry = self._entry
        if entry is not None and entry[_CALLBACK] is not None:
            # Drop references eagerly so cancelled events do not pin large
            # object graphs in the heap until they are popped.
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            if entry[_IN_QUEUE]:
                self._simulator._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return "EventHandle(t=%.3f, %s)" % (self.time, state)


class RecurringEvent:
    """Handle to a recurring callback created by :meth:`Simulator.call_every`."""

    __slots__ = ("simulator", "interval", "callback", "args", "end", "cancelled", "_handle", "_tick")

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        callback: Callable[..., None],
        args: tuple,
        end: Optional[float],
    ) -> None:
        self.simulator = simulator
        self.interval = interval
        self.callback = callback
        self.args = args
        self.end = end
        self.cancelled = False
        self._handle: Optional[EventHandle] = None
        # Bind the tick callback once; re-arming reuses it every period.
        self._tick = self._fire

    @property
    def time(self) -> Optional[float]:
        """Time of the next scheduled occurrence (None once finished)."""
        return self._handle.time if self._handle is not None else None

    def _arm(self, when: float) -> None:
        self._handle = self.simulator._schedule_recurring(when, self._tick)

    def _fire(self) -> None:
        # Detach first: the armed handle has already left the heap, so a late
        # cancel() must not reach it.  The token stays local and is reused
        # verbatim by the re-arm — recurring processes allocate nothing per
        # tick — or retired to the freelist when the recurrence ends.
        token = self._handle
        self._handle = None
        if self.cancelled:
            if token is not None:
                self.simulator._retire_handle(token)
            return
        self.callback(*self.args)
        simulator = self.simulator
        next_time = simulator._now + self.interval
        if self.cancelled or (self.end is not None and next_time > self.end):
            if token is not None:
                simulator._retire_handle(token)
            return
        self._handle = simulator._schedule_recurring(next_time, self._tick, token)

    def cancel(self) -> None:
        """Stop the recurrence; the pending occurrence (if any) is dropped."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class Simulator:
    """Event queue with a simulated clock.

    The simulator is the single source of simulated time.  All other
    components hold a reference to it and schedule their work through
    :meth:`schedule` / :meth:`schedule_at` (or :meth:`post` / :meth:`post_at`
    when the caller never needs to cancel).
    """

    #: Lazy-deletion compaction: rebuild the heap once more than this many
    #: cancelled entries linger in it AND they outnumber the live ones.
    COMPACTION_MIN_CANCELLED = 64

    #: Upper bound on recycled handles kept for recurring re-arms.
    FREELIST_MAX = 1024

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[list] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self._cancelled_in_queue = 0
        self._free: List[EventHandle] = []
        #: Number of lazy-deletion compaction passes performed (diagnostics).
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past (delay=%r)" % delay)
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule an event at %.3f before current time %.3f"
                % (time, self._now)
            )
        entry = [time, priority, next(self._seq), callback, args, None, True]
        handle = EventHandle(self, entry)
        entry[_HANDLE] = handle
        heapq.heappush(self._queue, entry)
        return handle

    def post(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no cancellation."""
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past (delay=%r)" % delay)
        heapq.heappush(
            self._queue,
            [self._now + delay, priority, next(self._seq), callback, args, None, True],
        )

    def post_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, no cancellation."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule an event at %.3f before current time %.3f"
                % (time, self._now)
            )
        heapq.heappush(
            self._queue, [time, priority, next(self._seq), callback, args, None, True]
        )

    def _schedule_recurring(
        self,
        time: float,
        callback: Callable[..., None],
        token: Optional[EventHandle] = None,
    ) -> EventHandle:
        """Internal: schedule a recurring tick, reusing ``token`` if given.

        A recurrence passes its own just-fired handle back as ``token`` so a
        periodic process allocates no handle per tick; with no token the
        handle comes from the freelist of retired recurrences (or is newly
        allocated for the very first recurrences).
        """
        entry = [time, 0, next(self._seq), callback, (), None, True]
        if token is None:
            free = self._free
            token = free.pop() if free else EventHandle(self, entry)
        token.time = time
        token.priority = 0
        token.seq = entry[_SEQ]
        token.cancelled = False
        token._entry = entry
        entry[_HANDLE] = token
        heapq.heappush(self._queue, entry)
        return token

    def call_every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> "RecurringEvent":
        """Schedule ``callback`` to run every ``interval`` seconds.

        Returns a :class:`RecurringEvent` whose ``cancel()`` stops the
        recurrence.  ``end`` (absolute time) bounds the recurrence: the tick
        landing exactly on ``end`` still fires, the next one does not.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        first = self._now + interval if start is None else start
        recurrence = RecurringEvent(self, interval, callback, args, end)
        recurrence._arm(first)
        return recurrence

    # -- cancellation bookkeeping ----------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > self.COMPACTION_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (lazy-deletion sweep)."""
        queue = self._queue
        live = []
        for entry in queue:
            if entry[_CALLBACK] is None:
                entry[_IN_QUEUE] = False
                handle = entry[_HANDLE]
                if handle is not None:
                    handle._entry = None
            else:
                live.append(entry)
        # In-place so aliases of the queue list (the hoisted run loop) see it.
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    def compact(self) -> None:
        """Drop lazily-deleted (cancelled) entries from the event heap now.

        Semantically transparent — the live event order is unchanged — but
        it bounds what a checkpoint captures: snapshots taken through
        :mod:`repro.replay.checkpoint` exclude cancelled entries instead of
        serializing them.
        """
        if self._cancelled_in_queue:
            self._compact()

    def _retire_handle(self, token: EventHandle) -> None:
        """Return a finished recurrence's handle to the freelist."""
        token._entry = None
        token.cancelled = False
        if len(self._free) < self.FREELIST_MAX:
            self._free.append(token)

    # -- execution --------------------------------------------------------------

    def run(self, until: float) -> None:
        """Run the simulation until simulated time ``until`` (inclusive)."""
        if self._running:
            raise SimulationError("simulator is already running")
        if until < self._now:
            raise SimulationError("cannot run backwards in time")
        self._running = True
        self._stopped = False
        # Hoist the heap machinery out of the loop: one batched inner loop
        # with local bindings processes the entire horizon.
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            while queue and not self._stopped:
                entry = queue[0]
                if entry[_TIME] > until:
                    break
                heappop(queue)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled_in_queue -= 1
                    handle = entry[_HANDLE]
                    if handle is not None:
                        handle._entry = None
                    continue
                self._now = entry[_TIME]
                # Detach the handle before invoking; a popped entry is
                # otherwise unreachable, so no further bookkeeping is needed
                # on it (recurrences reuse their own detached token).
                handle = entry[_HANDLE]
                if handle is not None:
                    args = entry[_ARGS]
                    entry[_CALLBACK] = None
                    entry[_ARGS] = ()
                    handle._entry = None
                    processed += 1
                    callback(*args)
                else:
                    processed += 1
                    callback(*entry[_ARGS])
            self._now = max(self._now, until)
        finally:
            self._running = False
            self.events_processed += processed

    def run_slice(self, until: float, max_events: int) -> bool:
        """Process at most ``max_events`` due events; True when the horizon is done.

        The sliced loop is a separate method (not a parameter on
        :meth:`run`) so the uncontrolled hot loop stays branch-free.  It
        processes the identical event sequence in the identical order —
        only the return points differ — so a run driven entirely through
        slices (the pause/step path, see :mod:`repro.telemetry.stream`)
        produces bit-identical metrics to one :meth:`run` call.  A
        cancelled entry at the head does not count against the budget; if
        the budget expires on one, the next slice consumes it, so progress
        is always made.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until < self._now:
            raise SimulationError("cannot run backwards in time")
        self._running = True
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        budget = max(1, int(max_events))
        try:
            while queue and not self._stopped:
                entry = queue[0]
                if entry[_TIME] > until:
                    break
                heappop(queue)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled_in_queue -= 1
                    handle = entry[_HANDLE]
                    if handle is not None:
                        handle._entry = None
                    continue
                self._now = entry[_TIME]
                handle = entry[_HANDLE]
                if handle is not None:
                    args = entry[_ARGS]
                    entry[_CALLBACK] = None
                    entry[_ARGS] = ()
                    handle._entry = None
                    processed += 1
                    callback(*args)
                else:
                    processed += 1
                    callback(*entry[_ARGS])
                if processed >= budget:
                    break
            done = self._stopped or not queue or queue[0][_TIME] > until
            if done:
                self._now = max(self._now, until)
            return done
        finally:
            self._running = False
            self.events_processed += processed

    def step(self) -> bool:
        """Process a single pending event.  Returns False if none remain."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            callback = entry[_CALLBACK]
            handle = entry[_HANDLE]
            if callback is None:
                self._cancelled_in_queue -= 1
                if handle is not None:
                    handle._entry = None
                continue
            self._now = entry[_TIME]
            args = entry[_ARGS]
            if handle is not None:
                entry[_CALLBACK] = None
                entry[_ARGS] = ()
                handle._entry = None
            self.events_processed += 1
            callback(*args)
            return True
        return False

    def stop(self) -> None:
        """Stop a running :meth:`run` loop after the current event."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return len(self._queue) - self._cancelled_in_queue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Simulator(now=%.3f, pending=%d)" % (self._now, len(self._queue))
