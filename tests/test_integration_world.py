"""Integration tests for the world builder and baseline (no-attack) runs."""

import pytest

from repro import units
from repro.config import smoke_config
from repro.experiments.world import build_world


class TestBuildWorld:
    def test_world_has_expected_shape(self):
        protocol, sim = smoke_config()
        world = build_world(protocol, sim)
        assert len(world.peers) == sim.n_peers
        assert len(world.aus) == sim.n_aus
        for peer in world.peers:
            assert len(peer.replicas) == sim.n_aus
            for au in world.aus:
                state = peer.au_state(au.au_id)
                assert len(state.reference_list) == sim.initial_reference_list_size
                assert peer.peer_id not in state.reference_list
                assert len(state.reference_list.friends) == sim.friends_list_size

    def test_every_peer_is_registered_on_the_network(self):
        protocol, sim = smoke_config()
        world = build_world(protocol, sim)
        for peer in world.peers:
            assert world.network.is_registered(peer.peer_id)

    def test_world_cannot_be_started_twice(self):
        protocol, sim = smoke_config()
        world = build_world(protocol, sim)
        world.start()
        with pytest.raises(RuntimeError):
            world.start()


class TestBaselineRun:
    @pytest.fixture(scope="class")
    def baseline(self):
        protocol, sim = smoke_config()
        world = build_world(protocol, sim)
        metrics = world.run()
        return world, metrics

    def test_polls_happen_at_roughly_the_configured_rate(self, baseline):
        world, metrics = baseline
        protocol = world.protocol_config
        sim = world.sim_config
        # Each (peer, AU) series should complete roughly duration/interval
        # polls; allow generous slack for start offsets and stragglers.
        expected = sim.n_peers * sim.n_aus * (sim.duration / protocol.poll_interval)
        assert metrics.total_polls >= 0.5 * expected
        assert metrics.total_polls <= 1.5 * expected

    def test_most_polls_succeed_absent_an_attack(self, baseline):
        _, metrics = baseline
        assert metrics.successful_polls > 0
        success_rate = metrics.successful_polls / max(1, metrics.total_polls)
        assert success_rate > 0.7

    def test_access_failure_probability_is_small(self, baseline):
        _, metrics = baseline
        assert 0.0 <= metrics.access_failure_probability < 0.2

    def test_damage_is_eventually_repaired(self, baseline):
        world, metrics = baseline
        if metrics.extras["storage_failures"] == 0:
            pytest.skip("no damage was injected in this seed")
        # Not every replica needs to be clean at the very end (damage may be
        # recent), but the population cannot have accumulated all the damage.
        damaged_now = sum(peer.replicas.damaged_count() for peer in world.peers)
        assert damaged_now <= metrics.extras["storage_failures"]

    def test_loyal_effort_is_accounted(self, baseline):
        world, metrics = baseline
        assert metrics.loyal_effort > 0
        categories = world.loyal_effort().by_category
        assert categories.get("hash", 0) > 0
        assert categories.get("proof", 0) > 0
        assert categories.get("verify", 0) > 0

    def test_no_adversary_means_zero_adversary_effort(self, baseline):
        _, metrics = baseline
        assert metrics.adversary_effort == 0.0

    def test_no_operator_alarms_in_baseline(self, baseline):
        _, metrics = baseline
        assert metrics.extras["alarms"] == 0


class TestDeterminism:
    def test_same_seed_reproduces_metrics(self):
        protocol, sim = smoke_config(seed=7)
        first = build_world(protocol, sim).run()
        second = build_world(protocol, sim).run()
        assert first.access_failure_probability == second.access_failure_probability
        assert first.successful_polls == second.successful_polls
        assert first.loyal_effort == pytest.approx(second.loyal_effort)

    def test_different_seeds_differ(self):
        protocol, sim = smoke_config(seed=7)
        first = build_world(protocol, sim).run()
        second = build_world(protocol, sim.with_overrides(seed=8)).run()
        assert (
            first.loyal_effort != pytest.approx(second.loyal_effort)
            or first.successful_polls != second.successful_polls
        )
