"""Metrics registry and bus-fed aggregation.

:class:`MetricsRegistry` holds counters, gauges, and histograms with
optional labels, renders a ``snapshot()`` dict for programmatic use and a
Prometheus-style text exposition for ``GET /api/metrics``.  No background
threads and no third-party client library: metric objects are plain
lock-guarded dicts, and scraping is just string formatting.

:class:`MetricsAggregator` subscribes to an
:class:`~repro.telemetry.bus.EventBus` and folds events into a registry on
demand — :meth:`~MetricsAggregator.pump` drains its ring and updates the
metrics, so aggregation costs nothing between scrapes.  The metric catalog
it maintains is documented in docs/TELEMETRY.md.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .bus import EventBus, Subscription

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = ['%s="%s"' % (name, value.replace('"', '\\"')) for name, value in key]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


class _Metric:
    """Shared plumbing: a name, help text, and per-labelset storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def snapshot(self) -> Dict[str, object]:
        values = {
            _render_labels(key) or "": value for key, value in self.samples()
        }
        return {"type": self.kind, "help": self.help, "values": values}

    def exposition(self) -> List[str]:
        lines = []
        if self.help:
            lines.append("# HELP %s %s" % (self.name, self.help))
        lines.append("# TYPE %s %s" % (self.name, self.kind))
        samples = self.samples()
        if not samples:
            samples = [((), 0.0)]
        for key, value in samples:
            lines.append("%s%s %s" % (self.name, _render_labels(key), _format(value)))
        return lines


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter(_Metric):
    """Monotonically increasing count (per labelset)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go up and down (per labelset)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram with ``_sum`` and ``_count`` series."""

    kind = "histogram"

    DEFAULT_BUCKETS: Tuple[float, ...] = (
        0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    )

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS))
        self._lock = threading.Lock()
        #: labelset -> (per-bucket counts, sum, count)
        self._series: Dict[LabelKey, List[object]] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * len(self.buckets), 0.0, 0]
                self._series[key] = series
            index = bisect.bisect_left(self.buckets, value)
            if index < len(self.buckets):
                series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[2] if series else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1] if series else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            series = {key: (list(s[0]), s[1], s[2]) for key, s in self._series.items()}
        values = {}
        for key, (counts, total, count) in sorted(series.items()):
            cumulative = 0
            buckets = {}
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                buckets[str(bound)] = cumulative
            values[_render_labels(key) or ""] = {
                "buckets": buckets,
                "sum": total,
                "count": count,
            }
        return {"type": self.kind, "help": self.help, "values": values}

    def exposition(self) -> List[str]:
        lines = []
        if self.help:
            lines.append("# HELP %s %s" % (self.name, self.help))
        lines.append("# TYPE %s %s" % (self.name, self.kind))
        with self._lock:
            series = {key: (list(s[0]), s[1], s[2]) for key, s in self._series.items()}
        if not series:
            series = {(): ([0] * len(self.buckets), 0.0, 0)}
        for key, (counts, total, count) in sorted(series.items()):
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                lines.append(
                    "%s_bucket%s %d"
                    % (self.name, _render_labels(key, 'le="%s"' % _format(bound)), cumulative)
                )
            lines.append(
                "%s_bucket%s %d" % (self.name, _render_labels(key, 'le="+Inf"'), count)
            )
            lines.append("%s_sum%s %s" % (self.name, _render_labels(key), _format(total)))
            lines.append("%s_count%s %d" % (self.name, _render_labels(key), count))
        return lines


class MetricsRegistry:
    """Named metric objects, created on first use and scraped together."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        "metric %r already registered as %s"
                        % (name, type(existing).__name__)
                    )
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def snapshot(self) -> Dict[str, object]:
        """All metrics as one JSON-native dict (name -> type/help/values)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.snapshot() for name, metric in sorted(metrics.items())}

    def exposition(self) -> str:
        """Prometheus text format (version 0.0.4), one block per metric."""
        with self._lock:
            metrics = dict(self._metrics)
        lines: List[str] = []
        for name in sorted(metrics):
            lines.extend(metrics[name].exposition())
        return "\n".join(lines) + "\n"


class MetricsAggregator:
    """Folds bus events into a registry on demand (no background thread).

    The aggregator owns one large-capacity subscription over every topic;
    callers :meth:`pump` it before reading the registry (the metrics
    endpoint does this per scrape).  Ring overflow between pumps is
    surfaced as ``repro_bus_dropped_events_total`` rather than hidden —
    counts derived from dropped events undercount, but say so.
    """

    def __init__(
        self,
        bus: EventBus,
        registry: Optional[MetricsRegistry] = None,
        capacity: int = 65536,
    ) -> None:
        self.bus = bus
        self.registry = registry if registry is not None else MetricsRegistry()
        self.subscription: Subscription = bus.subscribe(capacity=capacity)
        self._last_pump: Optional[float] = None
        #: subject -> crash/leave sim time, for downtime pairing.
        self._down_since: Dict[str, float] = {}
        #: Finished runs whose in-simulation events came through the bus;
        #: pooled, recorded and stored runs publish lifecycle events only.
        self.observed_runs = 0
        reg = self.registry
        self._events = reg.counter(
            "repro_bus_events_total", "Bus events consumed by the aggregator"
        )
        self._dropped = reg.gauge(
            "repro_bus_dropped_events_total",
            "Events the aggregator's ring dropped before they could be counted",
        )
        self._rate = reg.gauge(
            "repro_bus_events_per_second", "Event throughput over the last pump interval"
        )
        self._polls = reg.counter(
            "repro_polls_concluded_total", "Concluded polls by outcome"
        )
        self._admissions = reg.counter(
            "repro_admission_decisions_total", "Admission-control decisions by kind"
        )
        self._admission_rate = reg.gauge(
            "repro_admission_accept_rate", "Fraction of admission decisions that admitted"
        )
        self._damage = reg.counter(
            "repro_damage_blocks_total", "AU blocks damaged by storage failures"
        )
        self._windows = reg.counter(
            "repro_adversary_windows_total", "Adversary attack windows opened"
        )
        self._faults = reg.counter(
            "repro_fault_transitions_total", "Fault-injection transitions by event"
        )
        self._downtime = reg.counter(
            "repro_fault_downtime_sim_seconds_total",
            "Simulated seconds subjects spent crashed or departed",
        )
        self._runs = reg.counter("repro_runs_total", "Per-seed runs by lifecycle state")
        self._run_wall = reg.histogram(
            "repro_run_wall_seconds", "Wall-clock seconds per executed run"
        )
        self._campaign_points = reg.gauge(
            "repro_campaign_points", "Campaign point counts by state"
        )
        self._worker_completed = reg.gauge(
            "repro_worker_points_completed", "Points each worker has completed"
        )
        self._worker_wall = reg.gauge(
            "repro_worker_mean_point_wall_seconds", "Mean point wall time per worker"
        )
        self._worker_failures = reg.gauge(
            "repro_worker_consecutive_heartbeat_failures",
            "Consecutive heartbeat delivery failures per worker",
        )

    def pump(self, max_events: Optional[int] = None) -> int:
        """Drain and fold pending events; returns how many were consumed."""
        events = self.subscription.drain(max_events)
        for event in events:
            self._fold(event)
        count = len(events)
        if count:
            self._events.inc(count)
        self._dropped.set(self.subscription.dropped)
        now = time.monotonic()
        if self._last_pump is not None:
            elapsed = now - self._last_pump
            if elapsed > 0:
                self._rate.set(round(count / elapsed, 3))
        self._last_pump = now
        return count

    # -- folding ---------------------------------------------------------------------

    def _fold(self, event: Dict[str, object]) -> None:
        topic = event.get("topic")
        data = event.get("data")
        try:
            if topic == "poll":
                # ["poll", t, peer, au, reason, success, alarm, ...]
                self._polls.inc(outcome="success" if data[5] else "failure")
            elif topic == "admission":
                # Dense topic: tracer-published events are summaries
                # ["admsum", t0, t1, n, {decision: count}]; direct
                # publishes may still carry a raw ["adm", ...] record.
                if data[0] == "admsum":
                    for decision, count in data[4].items():
                        self._admissions.inc(count, decision=str(decision))
                else:
                    self._admissions.inc(decision=str(data[4]))
                self._update_admission_rate()
            elif topic == "damage":
                # ["dmgsum", t0, t1, n, ((peer, au, count), ...)] from
                # the tracer, or a raw ["dmg", ...] record.
                self._damage.inc(data[3] if data[0] == "dmgsum" else 1)
            elif topic == "adversary_window":
                self._windows.inc()
            elif topic == "fault":
                self._fold_fault(data)
            elif topic == "run_lifecycle":
                self._fold_run(data)
            elif topic == "campaign_progress":
                self._fold_campaign(data)
            elif topic == "worker_liveness":
                self._fold_worker(data)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            # A malformed event must never take the scrape endpoint down;
            # it still counted toward repro_bus_events_total.
            pass

    def _update_admission_rate(self) -> None:
        admitted = total = 0.0
        for key, value in self._admissions.samples():
            total += value
            if any(name == "decision" and label.startswith("admitted") for name, label in key):
                admitted += value
        if total:
            self._admission_rate.set(round(admitted / total, 6))

    def _fold_fault(self, data) -> None:
        # ["fault", t, subject, event]
        sim_time, subject, kind = float(data[1]), str(data[2]), str(data[3])
        self._faults.inc(event=kind)
        if kind in ("crash", "leave", "partition_start"):
            self._down_since.setdefault(subject, sim_time)
        elif kind in ("restart", "rejoin", "partition_end"):
            started = self._down_since.pop(subject, None)
            if started is not None and sim_time > started:
                self._downtime.inc(sim_time - started)

    def _fold_run(self, data: Dict[str, object]) -> None:
        state = str(data.get("state", ""))
        if state:
            self._runs.inc(state=state)
        if state == "finished" and data.get("observed"):
            self.observed_runs += 1
        wall = data.get("wall_s")
        if state in ("finished", "failed") and wall is not None:
            self._run_wall.observe(float(wall))

    def _fold_campaign(self, data: Dict[str, object]) -> None:
        campaign = str(data.get("digest", ""))[:12]
        counts = data.get("counts") or {}
        for state, count in counts.items():
            self._campaign_points.set(float(count), campaign=campaign, state=state)

    def _fold_worker(self, data: Dict[str, object]) -> None:
        worker = str(data.get("worker", ""))
        if not worker:
            return
        telemetry = data.get("telemetry") or {}
        completed = telemetry.get("points_completed", telemetry.get("completed"))
        if completed is not None:
            self._worker_completed.set(float(completed), worker=worker)
        if telemetry.get("mean_point_wall_s") is not None:
            self._worker_wall.set(
                float(telemetry["mean_point_wall_s"]), worker=worker
            )
        if "consecutive_heartbeat_failures" in telemetry:
            self._worker_failures.set(
                float(telemetry["consecutive_heartbeat_failures"]), worker=worker
            )
