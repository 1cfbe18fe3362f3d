"""Unit tests for the metrics collectors and run comparisons."""

import pytest

from repro import units
from repro.metrics.access import AccessFailureSampler
from repro.metrics.polls import PollRecord, PollStatistics
from repro.metrics.report import RunMetrics, average_metrics, compare_runs
from repro.sim.engine import Simulator
from repro.storage.au import ArchivalUnit
from repro.storage.replica import ReplicaSet


def make_record(peer="p1", au="au-1", start=0.0, end=100.0, success=True, reason="success",
                alarm=False):
    return PollRecord(
        peer_id=peer,
        au_id=au,
        started_at=start,
        concluded_at=end,
        success=success,
        reason=reason,
        inner_votes=10,
        agreeing=9,
        disagreeing=1,
        repairs=0,
        alarm=alarm,
    )


class TestPollStatistics:
    def test_success_and_failure_counters(self):
        stats = PollStatistics()
        stats.record_poll(make_record(success=True))
        stats.record_poll(make_record(success=False, reason="inquorate"))
        stats.record_poll(make_record(success=False, reason="inquorate"))
        assert stats.successful_polls == 1
        assert stats.failed_polls == 2
        assert stats.total_polls == 3
        assert stats.failure_reasons == {"inquorate": 2}

    def test_alarm_counts_as_inconclusive(self):
        stats = PollStatistics()
        stats.record_poll(make_record(success=False, reason="inconclusive", alarm=True))
        assert stats.inconclusive_polls == 1
        assert stats.alarms == 1
        assert stats.failed_polls == 0

    def test_records_kept_only_when_requested(self):
        keep = PollStatistics(keep_records=True)
        drop = PollStatistics(keep_records=False)
        keep.record_poll(make_record())
        drop.record_poll(make_record())
        assert len(keep.records) == 1
        assert drop.records == []

    def test_successes_per_series(self):
        stats = PollStatistics()
        stats.record_poll(make_record(peer="p1", au="a", end=10.0))
        stats.record_poll(make_record(peer="p1", au="a", end=20.0))
        stats.record_poll(make_record(peer="p2", au="a", end=30.0))
        assert stats.successes_for("p1", "a") == [10.0, 20.0]
        assert stats.successes_for("p2", "a") == [30.0]
        assert stats.successes_for("p3", "a") == []
        assert stats.series_count() == 2

    def test_mean_time_between_successful_polls(self):
        stats = PollStatistics()
        # Series p1/a: 4 successes over a 100-unit window -> 25.
        for end in (10.0, 30.0, 60.0, 90.0):
            stats.record_poll(make_record(peer="p1", au="a", end=end))
        # Series p2/a: no successes -> contributes the whole window.
        stats.record_poll(make_record(peer="p2", au="a", success=False, reason="inquorate"))
        assert stats.mean_time_between_successful_polls(100.0) == pytest.approx((25 + 100) / 2)

    def test_mean_time_with_no_series_returns_window(self):
        stats = PollStatistics()
        assert stats.mean_time_between_successful_polls(50.0) == 50.0

    def test_mean_time_rejects_bad_window(self):
        stats = PollStatistics()
        with pytest.raises(ValueError):
            stats.mean_time_between_successful_polls(0.0)

    def test_auxiliary_counters(self):
        stats = PollStatistics()
        stats.record_invitation(True)
        stats.record_invitation(False)
        stats.record_invitation(None)
        stats.record_vote_supplied()
        stats.record_vote_received()
        stats.record_repair_supplied()
        stats.record_repair_applied()
        assert stats.invitations_sent == 3
        assert stats.invitations_accepted == 1
        assert stats.invitations_refused == 1
        assert stats.votes_supplied == 1
        assert stats.votes_received == 1
        assert stats.repairs_supplied == 1
        assert stats.repairs_applied == 1


class _FakePeer:
    def __init__(self, peer_id, n_aus):
        self.peer_id = peer_id
        self.replicas = ReplicaSet(peer_id)
        for index in range(n_aus):
            self.replicas.add(
                ArchivalUnit("au-%d" % index, size_bytes=2 * units.MB, block_size=units.MB)
            )


class TestAccessFailureSampler:
    def test_samples_fraction_of_damaged_replicas(self):
        simulator = Simulator()
        peers = [_FakePeer("p1", 2), _FakePeer("p2", 2)]
        sampler = AccessFailureSampler(simulator, peers, interval=10.0, end_time=100.0)
        assert sampler.current_fraction() == 0.0
        peers[0].replicas.get("au-0").damage_block(0)
        assert sampler.current_fraction() == pytest.approx(0.25)

    def test_periodic_sampling_and_mean(self):
        simulator = Simulator()
        peers = [_FakePeer("p1", 1)]
        sampler = AccessFailureSampler(simulator, peers, interval=10.0, end_time=100.0)
        sampler.start()
        simulator.schedule(45.0, lambda: peers[0].replicas.get("au-0").damage_block(0))
        simulator.run(until=100.0)
        assert len(sampler.samples) == 10
        # Damaged from t=45 onwards: samples at 50..100 (6 of 10) read 1.0.
        assert sampler.access_failure_probability == pytest.approx(0.6)
        assert sampler.max_fraction() == 1.0

    def test_no_peers_yields_zero(self):
        simulator = Simulator()
        sampler = AccessFailureSampler(simulator, [], interval=10.0, end_time=50.0)
        assert sampler.current_fraction() == 0.0
        assert sampler.access_failure_probability == 0.0

    def test_stop_halts_sampling(self):
        simulator = Simulator()
        peers = [_FakePeer("p1", 1)]
        sampler = AccessFailureSampler(simulator, peers, interval=10.0, end_time=1000.0)
        sampler.start()
        simulator.run(until=30.0)
        sampler.stop()
        simulator.run(until=100.0)
        assert len(sampler.samples) == 3

    def test_rejects_bad_interval(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            AccessFailureSampler(simulator, [], interval=0.0, end_time=10.0)


def make_metrics(access=1e-3, gap=90 * units.DAY, successes=100, loyal=1000.0, adversary=0.0):
    return RunMetrics(
        access_failure_probability=access,
        mean_time_between_successful_polls=gap,
        successful_polls=successes,
        failed_polls=5,
        inconclusive_polls=0,
        loyal_effort=loyal,
        adversary_effort=adversary,
        observation_window=units.YEAR,
    )


class TestRunMetricsAndComparison:
    def test_effort_per_successful_poll(self):
        metrics = make_metrics(loyal=1000.0, successes=100)
        assert metrics.effort_per_successful_poll == pytest.approx(10.0)

    def test_effort_per_poll_with_zero_successes(self):
        metrics = make_metrics(successes=0, loyal=500.0)
        assert metrics.effort_per_successful_poll == 500.0

    def test_compare_runs_ratios(self):
        baseline = make_metrics(gap=90 * units.DAY, loyal=1000.0, successes=100)
        attacked = make_metrics(
            access=2e-3, gap=180 * units.DAY, loyal=3000.0, successes=100, adversary=1500.0
        )
        assessment = compare_runs(attacked, baseline)
        assert assessment.delay_ratio == pytest.approx(2.0)
        assert assessment.coefficient_of_friction == pytest.approx(3.0)
        assert assessment.cost_ratio == pytest.approx(0.5)
        assert assessment.access_failure_probability == pytest.approx(2e-3)

    def test_effortless_attack_has_no_cost_ratio(self):
        baseline = make_metrics()
        attacked = make_metrics(adversary=0.0)
        assessment = compare_runs(attacked, baseline)
        assert assessment.cost_ratio is None

    def test_average_metrics(self):
        a = make_metrics(access=1e-3, successes=100, loyal=1000.0)
        b = make_metrics(access=3e-3, successes=200, loyal=3000.0)
        averaged = average_metrics([a, b])
        assert averaged.access_failure_probability == pytest.approx(2e-3)
        assert averaged.successful_polls == 150
        assert averaged.loyal_effort == pytest.approx(2000.0)

    def test_average_metrics_rejects_empty(self):
        with pytest.raises(ValueError):
            average_metrics([])

    def test_average_metrics_merges_extras(self):
        a = make_metrics()
        a.extras["alarms"] = 2.0
        b = make_metrics()
        b.extras["alarms"] = 4.0
        assert average_metrics([a, b]).extras["alarms"] == pytest.approx(3.0)


class TestCompareRunsEdgeCases:
    def test_zero_baseline_gap_is_clamped(self):
        # A degenerate baseline with a zero mean gap must not divide by zero;
        # the clamp floors the denominator at 1e-9.
        baseline = make_metrics(gap=0.0)
        attacked = make_metrics(gap=90 * units.DAY)
        assessment = compare_runs(attacked, baseline)
        assert assessment.delay_ratio == pytest.approx(90 * units.DAY / 1e-9)

    def test_zero_baseline_effort_is_clamped(self):
        baseline = make_metrics(loyal=0.0, successes=100)
        attacked = make_metrics(loyal=3000.0, successes=100)
        assessment = compare_runs(attacked, baseline)
        assert assessment.coefficient_of_friction == pytest.approx(30.0 / 1e-9)

    def test_both_gaps_zero_yield_zero_delay_ratio(self):
        baseline = make_metrics(gap=0.0)
        attacked = make_metrics(gap=0.0)
        assert compare_runs(attacked, baseline).delay_ratio == 0.0

    def test_cost_ratio_none_only_when_adversary_effort_is_zero(self):
        baseline = make_metrics()
        assert compare_runs(make_metrics(adversary=0.0), baseline).cost_ratio is None
        tiny = compare_runs(make_metrics(adversary=1e-12), baseline)
        assert tiny.cost_ratio is not None and tiny.cost_ratio > 0

    def test_cost_ratio_with_zero_loyal_effort_is_clamped(self):
        baseline = make_metrics()
        attacked = make_metrics(loyal=0.0, adversary=100.0)
        assessment = compare_runs(attacked, baseline)
        assert assessment.cost_ratio == pytest.approx(100.0 / 1e-9)

    def test_identical_runs_have_unit_ratios(self):
        run = make_metrics()
        assessment = compare_runs(run, run)
        assert assessment.delay_ratio == pytest.approx(1.0)
        assert assessment.coefficient_of_friction == pytest.approx(1.0)


class TestMetricsSerialization:
    def test_run_metrics_round_trip(self):
        run = make_metrics(adversary=42.0)
        run.extras["alarms"] = 2.0
        assert RunMetrics.from_dict(run.to_dict()) == run
