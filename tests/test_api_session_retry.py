"""Session fault handling: per-run timeouts, bounded retries, and the
PointExecutionError surface the campaign runner builds on."""

import logging
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import units
from repro.api import (
    AdversarySpec,
    Campaign,
    CampaignRunner,
    PointExecutionError,
    Scenario,
    Session,
)
from repro.api import session as session_module
from repro.api.campaign import plan_fork_groups
from repro.api.resultset import digest_rows, export_rows
from repro.api.scenario import canonical_json
from repro.service import Broker, LocalBrokerClient, Worker
from repro.service.sqlite_store import SQLiteResultStore


def smoke_scenario(**overrides):
    fields = dict(
        name="retry test",
        base="smoke",
        sim={"duration": units.months(3)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 30.0, "coverage": 1.0, "recuperation_days": 10.0},
        ),
        seeds=(1,),
    )
    fields.update(overrides)
    return Scenario(**fields)


class FlakyExecutor:
    """Stand-in for execute_point that fails the first ``failures`` calls."""

    def __init__(self, failures, exception=RuntimeError("transient")):
        self.failures = failures
        self.exception = exception
        self.calls = 0
        self.real = session_module.execute_point

    def __call__(self, scenario, seed, baseline=False, registry=None, trace_path=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exception
        return self.real(
            scenario, seed, baseline=baseline, registry=registry, trace_path=trace_path
        )


class TestSerialRetries:
    def test_transient_failure_is_retried_to_success(self, monkeypatch):
        flaky = FlakyExecutor(failures=1)
        monkeypatch.setattr(session_module, "execute_point", flaky)
        session = Session(retries=1, retry_backoff=0.0)
        runs = session.run_metrics(smoke_scenario(adversary=None))
        assert len(runs) == 1
        assert flaky.calls == 2

    def test_exhausted_retries_raise_point_execution_error(self, monkeypatch):
        flaky = FlakyExecutor(failures=10)
        monkeypatch.setattr(session_module, "execute_point", flaky)
        session = Session(retries=2, retry_backoff=0.0)
        with pytest.raises(PointExecutionError) as excinfo:
            session.run_metrics(smoke_scenario(adversary=None))
        assert excinfo.value.attempts == 3
        assert flaky.calls == 3
        assert "retry test" in str(excinfo.value)
        assert "seed 1" in str(excinfo.value)

    def test_zero_retries_fail_on_first_error(self, monkeypatch):
        flaky = FlakyExecutor(failures=10)
        monkeypatch.setattr(session_module, "execute_point", flaky)
        session = Session(retries=0, retry_backoff=0.0)
        with pytest.raises(PointExecutionError):
            session.run_metrics(smoke_scenario(adversary=None))
        assert flaky.calls == 1

    def test_keyboard_interrupt_is_never_swallowed(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt()

        monkeypatch.setattr(session_module, "execute_point", interrupted)
        session = Session(retries=5, retry_backoff=0.0)
        with pytest.raises(KeyboardInterrupt):
            session.run_metrics(smoke_scenario(adversary=None))


class TestRunAllOnError:
    def test_return_mode_substitutes_errors_per_scenario(self, monkeypatch):
        real = session_module.execute_point

        def selective(scenario, seed, baseline=False, registry=None, trace_path=None):
            if scenario.name == "bad":
                raise RuntimeError("doomed")
            return real(
                scenario,
                seed,
                baseline=baseline,
                registry=registry,
                trace_path=trace_path,
            )

        monkeypatch.setattr(session_module, "execute_point", selective)
        session = Session(retries=0, retry_backoff=0.0)
        good = smoke_scenario(adversary=None, name="good")
        # A distinct config digest, or the two scenarios would share one run.
        bad = smoke_scenario(
            adversary=None, name="bad", sim={"duration": units.months(4)}
        )
        results = session.run_all([good, bad], on_error="return")
        assert not isinstance(results[0], PointExecutionError)
        assert isinstance(results[1], PointExecutionError)
        assert "doomed" in str(results[1])

    def test_raise_mode_aborts_the_batch(self, monkeypatch):
        def doomed(*args, **kwargs):
            raise RuntimeError("doomed")

        monkeypatch.setattr(session_module, "execute_point", doomed)
        session = Session(retries=0, retry_backoff=0.0)
        with pytest.raises(PointExecutionError):
            session.run_all([smoke_scenario(adversary=None)])

    def test_invalid_on_error_is_rejected(self):
        with pytest.raises(ValueError):
            Session().run_all([], on_error="ignore")


def fork_campaign(seeds=(1, 2)):
    """A lurking attacker (onset day 45) over two coverages: one fork group
    per seed."""
    scenario = smoke_scenario(
        name="fork timeout",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "composed",
            {
                "targeting": {"kind": "random_subset", "coverage": 1.0},
                "schedule": {
                    "kind": "piecewise",
                    "phases": [
                        {"duration_days": 45.0, "intensity": 0.0, "gap_days": 0.0},
                        {"duration_days": 20.0, "intensity": 1.0, "gap_days": 10.0},
                    ],
                    "repeat": True,
                },
                "vectors": [{"kind": "pipe_stoppage"}],
            },
        ),
        seeds=seeds,
    )
    campaign = Campaign(name="fork timeout", scenario=scenario)
    campaign.add_axis(**{"adversary.targeting.coverage": [0.4, 1.0]})
    return campaign


#: A budget every run has overrun at its first deadline check: the deadline
#: is taken before the world is built, and building one takes far longer.
SPENT = 1e-9


class TestSerialTimeout:
    def test_overrun_serial_run_fails_with_its_own_timeout(self):
        session = Session(timeout=SPENT, retries=0, retry_backoff=0.0)
        with pytest.raises(PointExecutionError) as excinfo:
            session.run_metrics(smoke_scenario(adversary=None))
        assert isinstance(excinfo.value.cause, TimeoutError)
        assert "time budget" in str(excinfo.value)

    def test_overrun_recorded_run_leaves_no_trace(self, tmp_path):
        session = Session(
            store=str(tmp_path), record=True, timeout=SPENT, retries=0,
            retry_backoff=0.0,
        )
        with pytest.raises(PointExecutionError) as excinfo:
            session.run_metrics(smoke_scenario(adversary=None))
        assert isinstance(excinfo.value.cause, TimeoutError)
        assert not list(tmp_path.glob("trace-*"))


class TestPoolTimeout:
    def test_timed_out_runs_fail_and_the_pool_recovers(self):
        scenario = smoke_scenario(adversary=None, seeds=(1, 2))
        session = Session(workers=2, timeout=SPENT, retries=0, retry_backoff=0.0)
        with session:
            with pytest.raises(PointExecutionError) as excinfo:
                session.run_metrics(scenario)
            assert isinstance(excinfo.value.cause, TimeoutError)
            # Runs bound themselves, so the pool that ran them is intact and
            # serves the next round.
            pool = session._pool
            assert pool is not None
            session.timeout = None
            runs = session.run_metrics(scenario)
            assert len(runs) == 2
            assert session._pool is pool

    def test_timed_out_fork_group_falls_back_to_its_own_full_runs(
        self, tmp_path, caplog
    ):
        campaign = fork_campaign()
        assert len(plan_fork_groups(campaign.expand())) == 2

        session = Session(
            workers=2,
            store=str(tmp_path / "store"),
            timeout=SPENT,
            retries=0,
            retry_backoff=0.0,
        )
        with session:
            runner = CampaignRunner(session, fork_prefixes=True)
            with caplog.at_level(logging.WARNING, logger="repro.api.session"):
                runner.run(campaign)
            # Both groups timed out in their prefix.  Neither verdict reaches
            # a point: forking is a cache, so both fall back to full runs...
            assert caplog.text.count("failed; falling back to full runs") == 2
            # ...and every point then fails by its *own* timed-out run under
            # the ordinary retry budget.
            status = runner.status(campaign)
            assert len(status.failed) == len(campaign)
            for error in status.failed.values():
                assert "failed after 1 attempt(s)" in error
                assert "time budget" in error

            session.timeout = None
            resumed = runner.run(campaign)
            assert runner.status(campaign).complete
        reference = CampaignRunner(Session()).run(campaign)
        assert [canonical_json(asdict(point.result)) for point in resumed] == [
            canonical_json(asdict(point.result)) for point in reference
        ]


_REAL_PAYLOAD = session_module._execute_payload
#: Set by a test before its pool forks; the forked workers inherit it.
_DEATHS = {"markers": None, "in_flight": 0}


def _dying_payload(payload):
    """Pool entry point that kills its worker on each run's first attempt.

    It dies only once every run of the round has started, so all of them
    are in flight when the pool breaks.
    """
    _, _, args, _ = payload
    markers = Path(_DEATHS["markers"])
    marker = markers / ("seed-%d" % args[0])
    if marker.exists():
        return _REAL_PAYLOAD(payload)
    marker.touch()
    give_up = time.monotonic() + 30.0
    while len(list(markers.iterdir())) < _DEATHS["in_flight"]:
        if time.monotonic() > give_up:
            break
        time.sleep(0.01)
    os._exit(1)


class TestBrokenPool:
    @pytest.fixture
    def dying_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(session_module, "_execute_payload", _dying_payload)
        monkeypatch.setitem(_DEATHS, "markers", str(tmp_path))
        monkeypatch.setitem(_DEATHS, "in_flight", 2)

    def test_runs_of_a_broken_pool_are_retried_on_a_fresh_one(self, dying_pool):
        scenario = smoke_scenario(adversary=None, seeds=(1, 2))
        with Session(workers=2, retries=1, retry_backoff=0.0) as session:
            runs = session.run_metrics(scenario)
        reference = Session().run_metrics(scenario)
        assert [run.to_dict() for run in runs] == [run.to_dict() for run in reference]

    def test_without_retries_each_run_fails_with_the_broken_pool(
        self, dying_pool
    ):
        scenarios = [smoke_scenario(adversary=None, seeds=(seed,)) for seed in (1, 2)]
        with Session(workers=2, retries=0, retry_backoff=0.0) as session:
            outcomes = session.run_all(scenarios, on_error="return")
            assert len(outcomes) == 2
            for outcome in outcomes:
                assert isinstance(outcome, PointExecutionError)
                assert isinstance(outcome.cause, BrokenProcessPool)
            assert session._pool is None  # dropped; the next round respawns


class TestGenerousBudget:
    @pytest.mark.parametrize(
        "mode", ["serial", "pool", "record", "fork_prefixes", "worker"]
    )
    def test_a_budget_that_is_not_spent_changes_no_digest(self, tmp_path, mode):
        campaign = fork_campaign(seeds=(1,))
        reference = digest_rows(
            export_rows(campaign.exporter, CampaignRunner(Session()).run(campaign))
        )
        if mode == "worker":
            store = SQLiteResultStore(tmp_path / "svc.db")
            broker = Broker(store)
            broker.submit(campaign)
            session = Session(store=store, timeout=60)
            Worker(LocalBrokerClient(broker), session=session).run()
            rows = CampaignRunner(Session(store=store)).rows(campaign)
        else:
            session = Session(
                workers=2 if mode == "pool" else 1,
                store=str(tmp_path / "store"),
                record=mode == "record",
                timeout=60,
            )
            with session:
                runner = CampaignRunner(
                    session, fork_prefixes=mode == "fork_prefixes"
                )
                runner.run(campaign)
                rows = runner.rows(campaign)
        assert digest_rows(rows) == reference
