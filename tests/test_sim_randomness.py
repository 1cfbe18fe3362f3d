"""Unit tests for deterministic named RNG streams."""

import pytest

from repro.sim.randomness import (
    RandomLanes,
    RandomStreams,
    derive_seed,
    exponential,
    jittered,
    lane_name,
    poisson_process,
    sample_without_replacement,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "network") == derive_seed(1, "network")

    def test_different_names_differ(self):
        assert derive_seed(1, "network") != derive_seed(1, "storage")

    def test_different_masters_differ(self):
        assert derive_seed(1, "network") != derive_seed(2, "network")

    def test_similar_names_are_unrelated(self):
        assert derive_seed(1, "peer-1") != derive_seed(1, "peer-11")


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_are_reproducible_across_instances(self):
        first = RandomStreams(7).stream("x").random()
        second = RandomStreams(7).stream("x").random()
        assert first == second

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("a")
        b = streams.stream("b")
        # Consuming a lot of randomness from one stream must not change the
        # other stream's sequence.
        expected_b = RandomStreams(7).stream("b").random()
        for _ in range(1000):
            a.random()
        assert b.random() == expected_b

    def test_contains(self):
        streams = RandomStreams(7)
        assert "a" not in streams
        streams.stream("a")
        assert "a" in streams

    def test_spawn_produces_unrelated_streams(self):
        parent = RandomStreams(7)
        child = parent.spawn("child")
        assert parent.stream("x").random() != child.stream("x").random()


class TestRandomLanes:
    def test_lane_is_the_named_child_stream(self):
        streams = RandomStreams(7)
        lanes = streams.lanes("adversary/composed")
        assert lanes.lane("targeting") is streams.stream("adversary/composed/targeting")
        assert lane_name("adversary/composed", "targeting") == (
            "adversary/composed/targeting"
        )

    def test_lanes_are_independent_per_component(self):
        lanes = RandomStreams(7).lanes("adversary/composed")
        expected = RandomStreams(7).lanes("adversary/composed").lane("b").random()
        a = lanes.lane("a")
        b = lanes.lane("b")
        for _ in range(1000):
            a.random()
        assert b.random() == expected

    def test_contains(self):
        streams = RandomStreams(7)
        lanes = streams.lanes("parent")
        assert "x" not in lanes
        lanes.lane("x")
        assert "x" in lanes
        assert isinstance(lanes, RandomLanes)

    def test_stream_stability_pinned(self):
        """Pinned first draws: renaming a lane (or changing the derivation
        scheme) silently reshuffles every composed attack's sample path, so
        the exact values are locked here.  If this test fails, a
        digest-breaking RNG change happened — make it consciously, with a
        bench-baseline refresh.
        """
        lanes = RandomStreams(1234).lanes("adversary/composed-adversary")
        assert lanes.lane("targeting").random() == 0.02734120583353239
        assert lanes.lane("vector-pipe_stoppage").random() == 0.39361812328349044
        assert derive_seed(1234, "adversary/composed-adversary/targeting") == (
            16221214590367866948
        )


class TestHelpers:
    def test_exponential_rejects_bad_rate(self):
        streams = RandomStreams(1)
        with pytest.raises(ValueError):
            exponential(streams.stream("x"), 0.0)

    def test_exponential_mean_is_roughly_inverse_rate(self):
        rng = RandomStreams(1).stream("exp")
        samples = [exponential(rng, 0.5) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(2.0, rel=0.15)

    def test_sample_without_replacement_caps_at_population(self):
        rng = RandomStreams(1).stream("s")
        population = ["a", "b", "c"]
        sample = sample_without_replacement(rng, population, 10)
        assert sorted(sample) == ["a", "b", "c"]

    def test_sample_without_replacement_zero(self):
        rng = RandomStreams(1).stream("s")
        assert sample_without_replacement(rng, ["a"], 0) == []

    def test_sample_has_no_duplicates(self):
        rng = RandomStreams(1).stream("s")
        population = list(range(100))
        sample = sample_without_replacement(rng, population, 50)
        assert len(sample) == len(set(sample)) == 50

    def test_jittered_within_bounds(self):
        rng = RandomStreams(1).stream("j")
        for _ in range(100):
            value = jittered(rng, 100.0, 0.1)
            assert 90.0 <= value <= 110.0

    def test_jittered_zero_fraction_is_identity(self):
        rng = RandomStreams(1).stream("j")
        assert jittered(rng, 42.0, 0.0) == 42.0

    def test_poisson_process_events_within_window(self):
        rng = RandomStreams(1).stream("p")
        events = list(poisson_process(rng, rate=1.0, start=10.0, end=20.0))
        assert all(10.0 < t < 20.0 for t in events)
        assert events == sorted(events)

    def test_poisson_process_rate_controls_count(self):
        rng = RandomStreams(2).stream("p")
        sparse = len(list(poisson_process(rng, rate=0.01, start=0.0, end=1000.0)))
        dense = len(list(poisson_process(rng, rate=0.1, start=0.0, end=1000.0)))
        assert dense > sparse
