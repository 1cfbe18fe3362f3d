"""Session fault handling: per-run timeouts, bounded retries, and the
PointExecutionError surface the campaign runner builds on."""

import logging

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
from repro.api.scenario import canonical_json


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


class TestPoolTimeout:
    def test_timed_out_runs_fail_and_the_pool_recovers(self):
        scenario = smoke_scenario(adversary=None, seeds=(1, 2))
        session = Session(workers=2, timeout=0.001, retries=0, retry_backoff=0.0)
        with session:
            with pytest.raises(PointExecutionError) as excinfo:
                session.run_metrics(scenario)
            assert isinstance(excinfo.value.cause, TimeoutError)
            # The timed-out pool was abandoned; a follow-up session run with
            # a sane budget must succeed on a fresh pool.
            session.timeout = None
            runs = session.run_metrics(scenario)
            assert len(runs) == 2

    def test_cancelled_fork_group_falls_back_to_its_own_full_runs(
        self, tmp_path, caplog
    ):
        # A lurking attacker (onset day 45) over two seeds and two coverages:
        # one fork group per seed, so the pool round holds two groups.
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
            seeds=(1, 2),
        )
        campaign = Campaign(name="fork timeout", scenario=scenario)
        campaign.add_axis(**{"adversary.targeting.coverage": [0.4, 1.0]})
        assert len(plan_fork_groups(campaign.expand())) == 2

        session = Session(
            workers=2,
            store=str(tmp_path / "store"),
            timeout=0.001,
            retries=0,
            retry_backoff=0.0,
        )
        with session:
            runner = CampaignRunner(session, fork_prefixes=True)
            with caplog.at_level(logging.WARNING, logger="repro.api.session"):
                runner.run(campaign)
            # The first group timed out and took the pool with it; the
            # second never got its budget.  Neither verdict reaches a point:
            # forking is a cache, so both groups fall back to full runs...
            assert "abandoning the process pool" in caplog.text
            assert "was cancelled; falling back to full runs" in caplog.text
            assert "failed; falling back to full runs" in caplog.text
            # ...and a point that then fails does so by its *own* timed-out
            # run under the ordinary retry budget.
            status = runner.status(campaign)
            assert len(status.completed) + len(status.failed) == len(campaign)
            for error in status.failed.values():
                assert "failed after 1 attempt(s)" in error
                assert "time budget" in error
                assert "pool abandoned" not in error

            session.timeout = None
            resumed = runner.run(campaign)
            assert runner.status(campaign).complete
        reference = CampaignRunner(Session()).run(campaign)
        assert [canonical_json(point.result.to_dict()) for point in resumed] == [
            canonical_json(point.result.to_dict()) for point in reference
        ]
