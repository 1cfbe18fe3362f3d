"""Smoke tests of the benchmark harness (tier-1; a few seconds in total).

They check that the harness works, not how fast the program is: every
workload builds and repeats its digests at the tiny ``smoke`` size, the
fleet's processes and temp dir go away even when the run fails, the wrapper
arithmetic is right, and BENCHMARK.json names what the code prints.
"""

import json
import re
import time

import pytest

from perf import ledger, run, run_one, trace
from perf.layers import PER_LAYER, TARGETS, Target
from perf.workloads import SIZES, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_and_repeats_its_digest(name, tmp_path):
    rounds = [
        run_one.run_round(name, 1, "smoke", tmp_path, time.time(), None)
        for _ in range(2)
    ]
    for result in rounds:
        assert result["failures"] == []
        assert result["points"] == sum(len(c) for c in WORKLOADS[name].campaigns(1, "smoke"))
        assert result["events"] > 0 and result["wall_s"] > 0 and result["disk_mb"] > 0
    assert rounds[0]["rows_digest"] == rounds[1]["rows_digest"]
    assert rounds[0]["events"] == rounds[1]["events"]
    assert list(tmp_path.iterdir()) == []


def test_fleet_tears_down_on_failure(tmp_path, monkeypatch):
    started = []

    def failing_run(self, campaigns):
        started.extend(self.processes)
        raise RuntimeError("boom")

    monkeypatch.setattr(run_one.FleetExecutor, "run", failing_run)
    with pytest.raises(RuntimeError, match="boom"):
        run_one.run_round("fleet_http", 1, "smoke", tmp_path, time.time(), None)
    assert started and all(process.poll() is not None for process in started)
    assert list(tmp_path.iterdir()) == []


def test_command_prints_the_contract_line(tmp_path, capsys):
    measurement = run.measure(
        "campaign_store", 7, 0.0, traced=True, scale="smoke", work_dir=tmp_path
    )
    assert measurement["failures"] == []
    assert measurement["rounds"] == 1 and measurement["traced_rounds"] == 1
    assert measurement["unresolved_targets"] == []
    assert measurement["layers"]["api.store.save_calls"] > 0
    assert measurement["layers"]["trace.unattributed_share"] < 0.5
    for traced, names in ((False, run.END_TO_END), (True, PER_LAYER)):
        line = json.loads(run.result_line(measurement, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [name for name, _, _ in names]
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []


def test_wrapper_self_time_excludes_wrapped_callees(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(trace.time, "perf_counter", lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    class Toy:
        def outer(self):
            tick(1)
            self.inner()
            self.inner()
            tick(1)

        def inner(self):
            tick(2)

        def recurse(self, depth):
            tick(1)
            if depth:
                self.recurse(depth - 1)
            return depth

    tracer = trace.Tracer()
    for attr in ("outer", "inner", "recurse"):
        target = Target("toy.Toy." + attr, "toy", span=attr == "outer",
                        measure=(lambda a, k, result: result) if attr == "recurse" else None)
        setattr(Toy, attr, tracer.wrap(getattr(Toy, attr), target, "Toy." + attr))
    Toy().outer()
    Toy().recurse(3)
    targets = tracer.snapshot()["targets"]
    assert (targets["Toy.outer"]["calls"], targets["Toy.outer"]["total_s"],
            targets["Toy.outer"]["self_s"]) == (1, 6.0, 2.0)
    assert (targets["Toy.inner"]["calls"], targets["Toy.inner"]["self_s"]) == (2, 4.0)
    # recursion: every level's self time is its own tick; totals nest 4+3+2+1
    assert targets["Toy.recurse"]["calls"] == 4
    assert targets["Toy.recurse"]["self_s"] == 4.0
    assert targets["Toy.recurse"]["total_s"] == 10.0
    assert targets["Toy.recurse"]["hits"] == 0 + 1 + 2 + 3
    spans = tracer.snapshot()["spans"]
    assert [span["name"] for span in spans] == ["Toy.outer"]
    assert spans[0]["parent"] is None and spans[0]["duration_s"] == 6.0
    assert ledger.layer_self_seconds(targets) == {"toy": 10.0}


def test_every_layer_target_resolves_at_this_commit():
    tracer = trace.Tracer()
    try:
        tracer.install()
        assert tracer.unresolved == []
        assert {t.layer for t in TARGETS} >= {
            "sim.engine", "core.admission", "api.store", "service.broker", "telemetry"
        }
    finally:
        tracer.uninstall()
    from repro.sim.engine import Simulator

    assert not hasattr(Simulator.run, "__perf_wrapped__")


def test_covered_seconds_is_the_clipped_union():
    assert trace.covered_seconds([(0, 2), (1, 3), (5, 9)], 1, 6) == 3.0


def test_benchmark_json_names_what_the_code_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark["paths"] == ["perf"]
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES) == list(SIZES["full"])
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == list(
        PER_LAYER
    )
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert len(benchmark["end_to_end"]) <= 16 and len(benchmark["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert any(m["name"] == "setup_s" for m in benchmark["end_to_end"])
    with open(run.HERE / "expected.json", encoding="utf-8") as handle:
        assert sorted(json.load(handle)) == sorted(run.WORKLOAD_NAMES)
