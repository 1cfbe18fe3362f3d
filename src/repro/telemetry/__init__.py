"""Live telemetry: event bus, streaming metrics, and run control.

See docs/TELEMETRY.md for the topic catalog, metric definitions, and the
SSE endpoint contract.  The subsystem is strictly opt-in: nothing here is
imported by the simulation core, and a session without a bus attached
executes exactly as before (the tap sites stay ``None``-guarded attribute
loads, per the PR 6 discipline).
"""

from .bus import DEFAULT_CAPACITY, TOPICS, EventBus
from .metrics import Counter, Histogram, MetricsAggregator, MetricsRegistry
from .stream import RunControl, attach_world_bus

__all__ = [
    "DEFAULT_CAPACITY",
    "TOPICS",
    "EventBus",
    "Counter",
    "Histogram",
    "MetricsAggregator",
    "MetricsRegistry",
    "RunControl",
    "attach_world_bus",
    "dashboard_html",
]


def dashboard_html() -> str:
    """The static dashboard page served at ``/dashboard``."""
    from pathlib import Path

    return (Path(__file__).parent / "dashboard" / "index.html").read_text(
        encoding="utf-8"
    )
