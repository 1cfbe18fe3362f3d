"""Wiring between executions and the telemetry bus, plus pause/step control.

World taps
----------
:func:`attach_world_bus` attaches a :class:`~repro.telemetry.tap.BusTracer`
through :func:`~repro.replay.trace.attach_tracer`, the one list of tap
sites.  Sparse records (poll, window, fault) reach the bus exactly as a
replay trace holds them, dense ones (admission, damage) as periodic
summaries, and the per-message network ``send`` tap stays unset.  The
tracer draws no randomness and mutates no simulation state, so a
bus-observed run is digest-identical to an unobserved one — the property
``bench --telemetry-compare`` asserts for all committed artifacts.

Run control
-----------
:class:`RunControl` gates a world's execution into bounded event slices
(:meth:`~repro.sim.engine.Simulator.run_slice`), so a live run can be
paused, single-stepped, and resumed from the dashboard without touching
the uncontrolled hot loop.  The slice boundary is deterministic only in
the sense that it never changes the *order* of processed events — metrics
from a controlled run are bit-identical to a plain one.

A run is reached through its control: in process by whoever holds it
(``Session(control=...)``, ``World.run(control=...)``), across the fleet
by the broker's control row, which workers apply from their heartbeat
responses (see docs/SERVICE.md).  The same slice boundary is where a
run's wall-clock deadline is checked (:meth:`World.advance
<repro.experiments.world.World.advance>`).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .bus import EventBus

#: Trace record kind -> bus topic.  ``send`` is intentionally absent.
RECORD_TOPICS: Dict[str, str] = {
    "poll": "poll",
    "adm": "admission",
    "dmg": "damage",
    "win": "adversary_window",
    "fault": "fault",
}


def attach_world_bus(world, bus: EventBus, run: Optional[str] = None):
    """Attach a :class:`~repro.telemetry.tap.BusTracer` to ``world``; returns it.

    Wires it through :func:`~repro.replay.trace.attach_tracer`, which
    leaves the network ``send`` tap unset for it.  ``run`` scopes every
    published event to a run digest so multi-run consumers can
    demultiplex.  Call the tracer's ``flush()`` when the run finishes.
    """
    from ..replay.trace import attach_tracer
    from .tap import BusTracer

    tracer = BusTracer(world.simulator, bus, run)
    attach_tracer(world, tracer)
    return tracer


class RunControl:
    """Pause/step/resume gate for a sliced simulation run.

    A running world calls :meth:`gate` between event slices; while the
    control is live (not paused) the gate grants ``slice_events`` at a
    time.  :meth:`pause` makes the next gate block; :meth:`step` grants a
    bounded batch of events *while paused*; :meth:`resume` unblocks.  All
    methods are thread-safe — HTTP handlers and heartbeat threads drive
    them against a world running on another thread.
    """

    def __init__(self, slice_events: int = 4096) -> None:
        self.slice_events = max(1, int(slice_events))
        self._resume = threading.Event()
        self._resume.set()
        self._lock = threading.Lock()
        self._step_grant = 0
        #: Total events granted through step() — observability only.
        self.stepped = 0

    @property
    def paused(self) -> bool:
        return not self._resume.is_set()

    def pause(self) -> None:
        self._resume.clear()

    def resume(self) -> None:
        with self._lock:
            self._step_grant = 0
        self._resume.set()

    def step(self, events: int = 1) -> int:
        """Grant ``events`` more events to a paused run; returns the grant."""
        grant = max(1, int(events))
        with self._lock:
            self._step_grant += grant
            self.stepped += grant
        return grant

    def gate(self) -> int:
        """Block while paused (honoring step grants); return the next slice size."""
        while True:
            if self._resume.is_set():
                return self.slice_events
            with self._lock:
                if self._step_grant > 0:
                    grant = self._step_grant
                    self._step_grant = 0
                    return grant
            self._resume.wait(0.05)


def publish_run_event(
    bus: Optional[EventBus],
    state: str,
    digest: str,
    scenario: str,
    seed: int,
    baseline: bool,
    wall_s: Optional[float] = None,
    events: Optional[float] = None,
    error: Optional[str] = None,
    observed: bool = False,
) -> None:
    """Publish one ``run_lifecycle`` event (no-op without a bus).

    ``observed`` marks a run whose in-simulation events went to ``bus``.
    """
    if bus is None:
        return
    data: Dict[str, object] = {
        "state": state,
        "digest": digest,
        "scenario": scenario,
        "seed": int(seed),
        "baseline": bool(baseline),
    }
    if wall_s is not None:
        data["wall_s"] = round(float(wall_s), 6)
    if events is not None:
        data["events"] = int(events)
    if error is not None:
        data["error"] = str(error)
    if observed:
        data["observed"] = True
    bus.publish("run_lifecycle", data, run=digest)


def publish_campaign_progress(
    bus: Optional[EventBus], status: Dict[str, object]
) -> None:
    """Publish one ``campaign_progress`` event from a status payload."""
    if bus is None:
        return
    data = {
        "name": status.get("name"),
        "digest": status.get("digest"),
        "total": status.get("total"),
        "counts": status.get("counts"),
        "complete": status.get("complete"),
    }
    bus.publish("campaign_progress", data)
