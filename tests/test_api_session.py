"""Integration tests for Session execution and the persistent ResultStore.

The headline acceptance property lives here: a parallel (>= 2 workers)
multi-seed run produces bit-identical metrics to a serial run of the same
scenario.
"""

import pytest

from repro import units
from repro.api import (
    AdversarySpec,
    Campaign,
    CampaignRunner,
    ResultStore,
    Scenario,
    Session,
)
from repro.api import session as session_module
from repro.metrics.report import RunMetrics


def smoke_scenario(**overrides):
    fields = dict(
        name="session test",
        base="smoke",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 45.0, "coverage": 1.0, "recuperation_days": 15.0},
        ),
        seeds=(1, 2),
    )
    fields.update(overrides)
    return Scenario(**fields)


def duration_grid(scenario):
    """Two points differing only in the attack duration."""
    grid = {"adversary.attack_duration_days": [30.0, 60.0]}
    return Campaign.from_grid("durations", scenario, grid)


class TestSerialExecution:
    def test_no_adversary_run_has_unit_ratios(self):
        result = Session().run(smoke_scenario(adversary=None, seeds=(1,)))
        assert result.assessment.delay_ratio == pytest.approx(1.0)
        assert result.assessment.coefficient_of_friction == pytest.approx(1.0)
        assert result.assessment.cost_ratio is None
        assert result.baseline_runs == result.attacked_runs

    def test_run_produces_one_metrics_per_seed(self):
        scenario = smoke_scenario()
        result = Session().run(scenario)
        assert len(result.attacked_runs) == len(scenario.seeds)
        assert len(result.baseline_runs) == len(scenario.seeds)
        assert result.scenario_digest == scenario.digest

    def test_run_rejects_sweep_scenarios(self):
        # A grid is a campaign's axes; a scenario cannot carry one.
        payload = dict(smoke_scenario().to_dict(), sweep={"adversary.coverage": [0.4]})
        with pytest.raises(ValueError, match="campaign's \"axes\""):
            Scenario.from_dict(payload)
        with pytest.raises(TypeError):
            smoke_scenario(sweep={"adversary.coverage": [0.4, 1.0]})

    def test_in_memory_cache_reuses_runs(self, monkeypatch):
        session = Session()
        scenario = smoke_scenario(seeds=(1,))
        first = session.run(scenario)
        # Any further simulation would blow up; the cache must serve it all.
        monkeypatch.setattr(
            session_module,
            "execute_point",
            lambda *args, **kwargs: pytest.fail("cache miss"),
        )
        second = session.run(scenario)
        assert second.assessment == first.assessment

    def test_sweep_shares_baselines_across_points(self):
        # Two grid points differing only in adversary params share one
        # baseline configuration: 2 attacked + 1 baseline = 3 simulations.
        calls = []
        original = session_module.execute_point

        def counting(scenario, seed, baseline=False, registry=None, **kwargs):
            calls.append(baseline)
            return original(
                scenario, seed, baseline=baseline, registry=registry, **kwargs
            )

        campaign = duration_grid(smoke_scenario(seeds=(1,)))
        session = Session()
        try:
            session_module.execute_point = counting
            # Session._compute calls the module function through the serial
            # path below (workers=1).
            results = CampaignRunner(session).run(campaign)
        finally:
            session_module.execute_point = original
        assert len(results) == 2
        assert calls.count(True) == 1
        assert calls.count(False) == 2


class TestParallelExecution:
    def test_parallel_is_bit_identical_to_serial(self):
        scenario = smoke_scenario()
        serial = Session(workers=1).run(scenario)
        parallel = Session(workers=2).run(scenario)
        assert parallel.attacked_runs == serial.attacked_runs
        assert parallel.baseline_runs == serial.baseline_runs
        assert parallel.assessment == serial.assessment

    def test_parallel_sweep_matches_serial_sweep(self):
        campaign = duration_grid(smoke_scenario(seeds=(1,)))
        serial = [p.result for p in CampaignRunner(Session(workers=1)).run(campaign)]
        parallel = [p.result for p in CampaignRunner(Session(workers=2)).run(campaign)]
        assert [r.assessment for r in parallel] == [r.assessment for r in serial]
        assert [r.parameters for r in parallel] == [r.parameters for r in serial]


class TestPoolReuse:
    def test_one_pool_is_reused_across_batches(self, monkeypatch):
        import concurrent.futures

        created = []
        real_executor = concurrent.futures.ProcessPoolExecutor

        class CountingExecutor(real_executor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", CountingExecutor
        )
        with Session(workers=2) as session:
            session.run(smoke_scenario(seeds=(1, 2)))
            # A second batch with different work must not re-spawn the pool.
            session.run(smoke_scenario(seeds=(3, 4)))
            assert len(created) == 1
        # close() dropped the pool; the next batch lazily spawns a fresh one.
        assert session._pool is None

    def test_close_is_idempotent_without_a_pool(self):
        session = Session()
        session.close()
        session.close()


class TestResultStore:
    def test_runs_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        runs = Session().run_metrics(smoke_scenario(adversary=None, seeds=(1,)))
        store.save_runs("digest", runs)
        assert store.load_runs("digest") == runs

    def test_missing_and_corrupt_artifacts_read_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_runs("missing") is None
        store.path_for("runs", "bad").write_text("{not json", encoding="utf-8")
        assert store.load_runs("bad") is None

    def test_invalid_kind_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("../escape", "digest")

    def test_store_survives_across_sessions(self, tmp_path, monkeypatch):
        scenario = smoke_scenario(seeds=(1,))
        store = ResultStore(tmp_path)
        first = Session(store=store).run(scenario)
        # A brand-new session (fresh in-memory cache) must be able to answer
        # entirely from the on-disk artifacts, as a separate process would.
        monkeypatch.setattr(
            session_module,
            "execute_point",
            lambda *args, **kwargs: pytest.fail("store miss"),
        )
        second = Session(store=ResultStore(tmp_path)).run(scenario)
        assert second.assessment == first.assessment
        assert second.attacked_runs == first.attacked_runs

    def test_only_runs_are_persisted_and_the_result_is_derived_from_them(
        self, tmp_path
    ):
        scenario = smoke_scenario(seeds=(1,))
        store = ResultStore(tmp_path)
        result = Session(store=store).run(scenario)
        keys = scenario.run_keys()
        assert sorted(path.name for path in store.artifacts()) == sorted(
            "runs-%s.json" % digest for _, _, digest in keys
        )
        runs = {digest: store.load_runs(digest)[0] for _, _, digest in keys}
        derived = session_module.assemble_result(scenario, scenario.digest, keys, runs)
        assert derived == result
        assert derived.scenario_digest == scenario.digest

    def test_clear_removes_artifacts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_json("runs", "d1", [])
        store.save_json("result", "d2", {})
        assert len(store.artifacts()) == 2
        assert store.clear() == 2
        assert store.artifacts() == []
