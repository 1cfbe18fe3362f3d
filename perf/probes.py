"""Direct measurements the workloads do not reach: checkpoints and the event bus.

Prefix forking has no workload yet and no workload attaches an event bus in
process, so the traced run measures both on one fixed point (the full-coverage flood
of ``record_replay``, seed 1).  The
numbers have no end-to-end metric to move; they exist so a later change to
``replay.checkpoint`` or ``telemetry`` has a before.
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path
from typing import Dict

#: capture/restore repetitions; the median is reported
REPEATS = 10


def _probe_scenario():
    from .workloads import WORKLOADS

    campaign = WORKLOADS["record_replay"].campaigns(1)[1]
    return campaign.expand()[-1].scenario


def checkpoint_probe(tmp: Path) -> Dict[str, float]:
    """Capture and restore a half-run world ``REPEATS`` times each."""
    from repro.api.session import build_point_world
    from repro.replay import Checkpoint

    scenario = _probe_scenario()
    world = build_point_world(scenario, scenario.seeds[0])
    checkpoint = Checkpoint.capture_at(world, world.sim_config.duration / 2)
    captures, restores = [], []
    for _ in range(REPEATS):
        started = time.perf_counter()
        checkpoint = Checkpoint.capture(world)
        captures.append(time.perf_counter() - started)
        started = time.perf_counter()
        checkpoint.restore()
        restores.append(time.perf_counter() - started)
    size = checkpoint.save(tmp / "probe.ckpt").stat().st_size
    return {
        "capture_ms": statistics.median(captures) * 1000.0,
        "restore_ms": statistics.median(restores) * 1000.0,
        "bytes": size,
    }


def telemetry_probe(tracer) -> Dict[str, float]:
    """One point under ``Session(telemetry=bus)`` with a draining subscriber."""
    from repro.api import Session
    from repro.telemetry import EventBus

    bus = EventBus()
    subscription = bus.subscribe()
    done = threading.Event()

    def drain() -> None:
        while not done.wait(0.005):
            subscription.drain()
        subscription.drain()

    tracer.reset()
    drainer = threading.Thread(target=drain)
    drainer.start()
    try:
        Session(telemetry=bus).run(_probe_scenario())
    finally:
        done.set()
        drainer.join()
    self_s = sum(
        record["self_s"]
        for record in tracer.snapshot()["targets"].values()
        if record["layer"] == "telemetry"
    )
    dropped = subscription.dropped
    subscription.close()
    return {"published": bus.published, "dropped": dropped, "self_s": self_s}


def run_probes(tracer, tmp: Path) -> Dict[str, Dict[str, float]]:
    return {"checkpoint": checkpoint_probe(tmp), "telemetry": telemetry_probe(tracer)}
