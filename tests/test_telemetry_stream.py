"""Bus-attached execution: digest identity, world taps, and run control.

The load-bearing property: attaching an :class:`EventBus` (with a live
subscriber) to a session, or running under a :class:`RunControl`, must
leave every result bit-identical to an unobserved, uncontrolled run.
"""

import dataclasses
import json
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import units
from repro.api import AdversarySpec, Scenario, Session
from repro.api.session import build_point_world
from repro.cli import main
from repro.replay import Checkpoint, Tracer, attach_tracer, iter_records, record_run
from repro.telemetry import EventBus, RunControl, attach_world_bus
from repro.telemetry.tap import DENSE_FLUSH, BusTracer

SMOKE_SCENARIO_FILE = (
    Path(__file__).resolve().parent.parent / "examples" / "scenarios" / "smoke_pipe_stoppage.json"
)


def smoke_scenario(**overrides):
    fields = dict(
        name="telemetry stream test",
        base="smoke",
        sim={"duration": units.months(2)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 20.0, "coverage": 1.0, "recuperation_days": 10.0},
        ),
        seeds=(1, 2),
    )
    fields.update(overrides)
    return Scenario(**fields)


def result_payload(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


class TestDigestIdentity:
    def test_bus_attached_serial_run_is_bit_identical(self):
        scenario = smoke_scenario()
        plain = Session().run(scenario)
        bus = EventBus()
        subscriber = bus.subscribe()
        observed = Session(telemetry=bus).run(scenario)
        assert result_payload(plain) == result_payload(observed)
        # ...and the observation was real, not a disabled tap.
        topics = {event["topic"] for event in subscriber.drain()}
        assert "run_lifecycle" in topics
        assert topics & {"poll", "admission", "damage"}

    def test_bus_attached_pool_run_matches_serial(self):
        scenario = smoke_scenario()
        serial = Session().run(scenario)
        bus = EventBus()
        subscriber = bus.subscribe()
        pooled = Session(workers=2, telemetry=bus).run(scenario)
        assert result_payload(serial) == result_payload(pooled)
        # Pool runs publish lifecycle only (children cannot reach the
        # parent's bus); every per-seed run announces start and finish.
        events = subscriber.drain()
        states = [event["data"]["state"] for event in events]
        assert states.count("started") == len(scenario.seeds) * 2  # attacked + baseline
        assert states.count("finished") == len(scenario.seeds) * 2

    def test_controlled_world_run_is_bit_identical(self):
        scenario = smoke_scenario(seeds=(3,))
        free = build_point_world(scenario, 3).run()
        controlled = build_point_world(scenario, 3).run(control=RunControl(slice_events=97))
        assert free.to_dict() == controlled.to_dict()

    def test_world_taps_do_not_change_metrics(self):
        scenario = smoke_scenario(seeds=(4,))
        plain = build_point_world(scenario, 4).run()
        world = build_point_world(scenario, 4)
        bus = EventBus()
        subscriber = bus.subscribe()
        attach_world_bus(world, bus, run="test-run")
        observed = world.run()
        assert plain.to_dict() == observed.to_dict()
        events = subscriber.drain()
        assert events, "taps published nothing"
        assert all(event["run"] == "test-run" for event in events)

    def test_network_send_tap_stays_unattached(self):
        world = build_point_world(smoke_scenario(seeds=(5,)), 5)
        attach_world_bus(world, EventBus())
        assert getattr(world.network, "tracer", None) is None

    def test_checkpoint_restores_the_tap_wiring_it_found(self):
        observed = build_point_world(smoke_scenario(seeds=(5,)), 5)
        attach_world_bus(observed, EventBus())
        Checkpoint.capture(observed)
        assert observed.network.tracer is None
        recorded = build_point_world(smoke_scenario(seeds=(5,)), 5)
        tracer = Tracer(recorded.simulator, [].append)
        attach_tracer(recorded, tracer)
        Checkpoint.capture(recorded)
        assert recorded.network.tracer is tracer


class TestBusSeesTheTrace:
    """The bus carries the records a trace of the same run holds."""

    def test_sparse_records_equal_and_dense_counts_match(self, tmp_path):
        scenario = Scenario(
            name="bus vs trace",
            base="smoke",
            sim={"duration": units.months(5)},
            adversary=AdversarySpec(
                "admission_flood", {"attack_duration_days": 20.0, "coverage": 1.0}
            ),
            faults={
                "crash": {"rate_per_peer_per_year": 6.0, "mean_downtime_days": 3.0},
                "partitions": [{"start_day": 10.0, "duration_days": 5.0, "fraction": 0.4}],
            },
            seeds=(1,),
        )
        path = tmp_path / "run.jsonl.gz"
        record_run(scenario, 1, path)
        trace = list(iter_records(path))

        world = build_point_world(scenario, 1)
        bus = EventBus()
        subscription = bus.subscribe(capacity=1 << 20)
        tracer = attach_world_bus(world, bus)
        world.run()
        tracer.flush()
        events = subscription.drain()
        assert subscription.dropped == 0

        for kind, topic in (("poll", "poll"), ("win", "adversary_window"), ("fault", "fault")):
            expected = [record for record in trace if record[0] == kind]
            assert expected, "scenario fires no %r record" % kind
            assert [event["data"] for event in events if event["topic"] == topic] == expected

        decisions = Counter()
        for event in events:
            if event["topic"] == "admission":
                decisions.update(event["data"][4])
        assert decisions == Counter(record[4] for record in trace if record[0] == "adm")
        cells = Counter()
        for event in events:
            if event["topic"] == "damage":
                for peer, au, count in event["data"][4]:
                    cells[(peer, au)] += count
        expected_cells = Counter((record[2], record[3]) for record in trace if record[0] == "dmg")
        assert expected_cells and cells == expected_cells


class TestRunMetricsFlag:
    def test_exposition_counts_what_the_runs_measured(self, capsys):
        result = Session().run(Scenario.load(SMOKE_SCENARIO_FILE))
        runs = list(result.attacked_runs) + list(result.baseline_runs)
        assert main(["run", str(SMOKE_SCENARIO_FILE), "--metrics"]) == 0
        samples = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("repro_"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        assert samples['repro_polls_concluded_total{outcome="success"}'] == sum(
            run.successful_polls for run in runs
        )
        assert samples['repro_polls_concluded_total{outcome="failure"}'] == sum(
            run.failed_polls + run.inconclusive_polls for run in runs
        )
        assert samples["repro_damage_blocks_total"] == sum(
            run.extras["storage_failures"] for run in runs
        )
        assert samples["repro_adversary_windows_total"] > 0


class _StubSim:
    _now = 42.0


class TestDenseAggregation:
    """Admission/damage fold into summaries instead of per-record events."""

    def _tracer(self):
        bus = EventBus()
        subscription = bus.subscribe(topics=["admission", "damage"])
        tracer = BusTracer(_StubSim(), bus, run="r1")
        return tracer, subscription

    def test_admission_summary_counts_and_window(self):
        tracer, subscription = self._tracer()
        tracer.admission(1.0, "v1", "p1", "admitted")
        tracer.admission(2.0, "v2", "p1", "dropped_refractory")
        tracer.admission(3.0, "v3", "p2", "admitted")
        assert subscription.pending() == 0  # nothing published until flush
        tracer.flush()
        (event,) = subscription.drain()
        kind, t_first, t_last, records, counts = event["data"]
        assert kind == "admsum"
        assert (t_first, t_last, records) == (1.0, 3.0, 3)
        assert counts == {"admitted": 2, "dropped_refractory": 1}
        assert event["run"] == "r1"

    def test_damage_summary_aggregates_cells(self):
        tracer, subscription = self._tracer()
        for _ in range(3):
            tracer.damage("peer-1", "au-1", 7)
        tracer.damage("peer-2", "au-1", 9)
        tracer.flush()
        (event,) = subscription.drain()
        kind, _, _, records, cells = event["data"]
        assert kind == "dmgsum"
        assert records == 4
        assert sorted(cells) == [("peer-1", "au-1", 3), ("peer-2", "au-1", 1)]

    def test_dense_flush_threshold_emits_mid_run(self):
        tracer, subscription = self._tracer()
        for index in range(DENSE_FLUSH + 1):
            tracer.admission(float(index), "v", "p", "admitted")
        events = subscription.drain()
        assert len(events) == 1  # the threshold flush; one record still pending
        assert events[0]["data"][3] == DENSE_FLUSH
        tracer.flush()
        (tail,) = subscription.drain()
        assert tail["data"][3] == 1
        tracer.flush()
        assert subscription.drain() == []  # empty aggregates publish nothing


class TestRunControl:
    def test_gate_grants_slices_while_live(self):
        control = RunControl(slice_events=123)
        assert control.gate() == 123
        assert not control.paused

    def test_pause_blocks_and_step_grants(self):
        control = RunControl()
        control.pause()
        grants = []

        def gated():
            grants.append(control.gate())

        thread = threading.Thread(target=gated)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive(), "gate returned while paused"
        control.step(7)
        thread.join(timeout=2.0)
        assert grants == [7]
        control.resume()

    def test_resume_unblocks_and_clears_grants(self):
        control = RunControl(slice_events=50)
        control.pause()
        control.step(3)
        control.resume()
        assert control.gate() == 50  # stale step grant was cleared
        assert control.stepped == 3  # but stays counted

    def test_paused_world_makes_no_progress_until_stepped(self):
        scenario = smoke_scenario(seeds=(6,))
        world = build_point_world(scenario, 6)
        control = RunControl(slice_events=256)
        control.pause()
        done = threading.Event()

        def run():
            world.run(control=control)
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.3)
        paused_at = world.simulator.events_processed
        assert not done.is_set()
        control.step(10)
        deadline = time.time() + 2.0
        while world.simulator.events_processed < paused_at + 10 and time.time() < deadline:
            time.sleep(0.01)
        assert world.simulator.events_processed >= paused_at + 10
        assert not done.is_set()
        control.resume()
        assert done.wait(timeout=30.0)
