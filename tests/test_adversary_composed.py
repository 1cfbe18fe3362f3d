"""Composed-adversary integration tests.

The load-bearing suite of the strategy API: each legacy monolithic adversary
against its ``ComposedAdversary`` reformulation (identical per-run metric
digests across 3 seeds), the new combined multi-vector and adaptive
vector-switching families end to end, structured-spec digest stability, and
nested per-component campaign axes.
"""

import hashlib

import pytest

from repro import units
from repro.adversary.admission_flood import AdmissionControlAdversary
from repro.adversary.base import AttackSchedule
from repro.adversary.brute_force import BruteForceAdversary, DefectionPoint
from repro.adversary.composed import ComposedAdversary
from repro.adversary.pipe_stoppage import PipeStoppageAdversary
from repro.api import AdversarySpec, Campaign, Scenario, Session
from repro.api.registry import DEFAULT_REGISTRY
from repro.api.scenario import canonical_json
from repro.config import smoke_config
from repro.experiments.world import build_world

SEEDS = (1, 2, 3)


def run_digest(metrics) -> str:
    """Content digest of one run's full RunMetrics payload."""
    return hashlib.sha256(canonical_json(metrics.to_dict()).encode("utf-8")).hexdigest()


def smoke(seed: int, months: float = 4.0):
    protocol, sim = smoke_config(seed=seed)
    return protocol, sim.with_overrides(duration=units.months(months))


def run_with(factory, seed: int):
    protocol, sim = smoke(seed)
    world = build_world(protocol, sim, adversary_factory=factory)
    return world, world.run()


# -- composed equals monolithic ---------------------------------------------------------


def monolithic_pipe_stoppage(world):
    return PipeStoppageAdversary(
        simulator=world.simulator,
        network=world.network,
        rng=world.streams.stream("adversary/pipe-stoppage"),
        schedule=AttackSchedule(
            attack_duration=units.days(30), coverage=0.5, recuperation=units.days(15)
        ),
        victims_pool=world.peer_ids(),
        end_time=world.sim_config.duration,
    )


def monolithic_admission_flood(world):
    return AdmissionControlAdversary(
        simulator=world.simulator,
        network=world.network,
        rng=world.streams.stream("adversary/admission-flood"),
        schedule=AttackSchedule(
            attack_duration=units.days(60), coverage=1.0, recuperation=units.days(15)
        ),
        victims_pool=world.peer_ids(),
        au_ids=[au.au_id for au in world.aus],
        end_time=world.sim_config.duration,
        invitations_per_victim_per_day=8.0,
    )


def monolithic_brute_force(defection):
    def factory(world):
        return BruteForceAdversary(
            simulator=world.simulator,
            network=world.network,
            rng=world.streams.stream("adversary/brute-force"),
            victims=world.peers,
            protocol_config=world.protocol_config,
            cost_model=world.cost_model,
            defection=defection,
            end_time=world.sim_config.duration,
        )

    return factory


class TestComposedEqualsMonolithic:
    """Each legacy adversary vs. its composition: identical run digests."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pipe_stoppage(self, seed):
        composed = DEFAULT_REGISTRY.factory(
            "pipe_stoppage",
            attack_duration_days=30.0,
            coverage=0.5,
            recuperation_days=15.0,
        )
        world, mono = run_with(monolithic_pipe_stoppage, seed)
        composed_world, comp = run_with(composed, seed)
        assert isinstance(composed_world.adversary, ComposedAdversary)
        assert run_digest(mono) == run_digest(comp)
        # Event counts match exactly, not just the summary metrics.
        assert mono.extras["events_processed"] == comp.extras["events_processed"]
        assert world.adversary.cycles_started == composed_world.adversary.cycles_started

    @pytest.mark.parametrize("seed", SEEDS)
    def test_admission_flood(self, seed):
        composed = DEFAULT_REGISTRY.factory(
            "admission_flood",
            attack_duration_days=60.0,
            coverage=1.0,
            recuperation_days=15.0,
            invitations_per_victim_per_day=8.0,
        )
        world, mono = run_with(monolithic_admission_flood, seed)
        composed_world, comp = run_with(composed, seed)
        assert run_digest(mono) == run_digest(comp)
        assert (
            world.adversary.invitations_sent
            == composed_world.adversary.invitations_sent
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("defection", ["intro", "remaining", "none"])
    def test_brute_force(self, seed, defection):
        composed = DEFAULT_REGISTRY.factory("brute_force", defection=defection)
        world, mono = run_with(
            monolithic_brute_force(DefectionPoint(defection)), seed
        )
        composed_world, comp = run_with(composed, seed)
        assert run_digest(mono) == run_digest(comp)
        assert (
            world.adversary.invitations_admitted
            == composed_world.adversary.invitations_admitted
        )
        assert world.adversary.votes_received == composed_world.adversary.votes_received


# -- the new scenario families ----------------------------------------------------------


def composed_spec(**params) -> AdversarySpec:
    return AdversarySpec("composed", params)


class TestCombinedAttack:
    def combined_factory(self, vectors):
        return DEFAULT_REGISTRY.factory(
            "composed",
            targeting={"kind": "random_subset", "coverage": 1.0},
            schedule={
                "kind": "on_off",
                "attack_duration_days": 30.0,
                "recuperation_days": 30.0,
            },
            vectors=vectors,
            node_id="combined-adversary",
        )

    FLOOD = {"kind": "admission_flood", "invitations_per_victim_per_day": 6.0}
    BRUTE = {"kind": "brute_force_poll", "attempts_per_victim_au_per_day": 5.0}

    def refractory_triggers(self, world):
        return sum(
            peer.au_state(au.au_id).admission.refractory.triggers
            for peer in world.peers
            for au in world.aus
        )

    def test_multi_vector_stack_runs_both_vectors(self):
        world, metrics = run_with(
            self.combined_factory([self.FLOOD, self.BRUTE]), seed=3
        )
        adversary = world.adversary
        # Both vectors engaged in every begun window...
        assert adversary.window_log
        assert all(active == [0, 1] for active in adversary.window_log)
        # ...and both left their fingerprints: the flood trips refractory
        # periods while the effortful solicitations pay real effort.
        assert adversary.vectors[0].invitations_sent > 0
        assert adversary.vectors[1].invitations_sent > 0
        assert self.refractory_triggers(world) > 0
        assert metrics.adversary_effort > 0  # the brute-force half is paid for

    def test_vectors_genuinely_interact(self):
        """The concurrent flood degrades the brute-force vector's admissions.

        This is the point of a *combined* protocol-level attack — and the
        regression guard against compositions whose vectors cancel each
        other out (a blackout, for instance, would drop the flood's own
        invitations; see combined_attack_campaign's docstring).
        """
        combined_world, _ = run_with(
            self.combined_factory([self.FLOOD, self.BRUTE]), seed=3
        )
        brute_alone_world, _ = run_with(self.combined_factory([self.BRUTE]), seed=3)
        flood_alone_world, _ = run_with(self.combined_factory([self.FLOOD]), seed=3)
        # The flood is not suppressed by the brute-force traffic...
        assert combined_world.adversary.vectors[0].invitations_sent > 0
        assert (
            self.refractory_triggers(combined_world)
            > self.refractory_triggers(flood_alone_world)
        )
        # ...and the refractory periods it trips visibly cut into the
        # brute-force vector's admitted invitations.
        combined_brute = combined_world.adversary.vectors[1]
        assert 0 < combined_brute.invitations_admitted < (
            brute_alone_world.adversary.invitations_admitted
        )

    def test_combined_attack_is_digest_stable(self):
        runs = [
            run_with(self.combined_factory([self.FLOOD, self.BRUTE]), seed=2)[1]
            for _ in range(2)
        ]
        assert run_digest(runs[0]) == run_digest(runs[1])


class TestAdaptiveAttack:
    def adaptive_factory(self, threshold):
        return DEFAULT_REGISTRY.factory(
            "composed",
            targeting={"kind": "sticky", "coverage": 1.0},
            schedule={
                "kind": "on_off",
                "attack_duration_days": 20.0,
                "recuperation_days": 10.0,
            },
            vectors=[
                {"kind": "brute_force_poll"},
                {"kind": "pipe_stoppage"},
            ],
            adaptive={
                "kind": "threshold_switch",
                "metric": "admission_rate",
                "threshold": threshold,
                "probe": 0,
                "escalation": 1,
                "grace_windows": 1,
            },
            node_id="adaptive-adversary",
        )

    def test_high_threshold_switches_to_escalation_vector(self):
        world, _ = run_with(self.adaptive_factory(1.1), seed=3)
        log = world.adversary.window_log
        assert log[0] == [0]  # probe window
        assert [1] in log  # the switch happened
        assert log[-1] == [1]  # and it is permanent

    def test_zero_threshold_never_switches(self):
        world, _ = run_with(self.adaptive_factory(0.0), seed=3)
        assert all(active == [0] for active in world.adversary.window_log)

    def test_switching_changes_the_outcome_deterministically(self):
        _, switched = run_with(self.adaptive_factory(1.1), seed=3)
        _, probing = run_with(self.adaptive_factory(0.0), seed=3)
        assert run_digest(switched) != run_digest(probing)
        _, switched_again = run_with(self.adaptive_factory(1.1), seed=3)
        assert run_digest(switched) == run_digest(switched_again)


# -- structured specs in scenarios and campaigns -----------------------------------------


class TestStructuredSpecs:
    def scenario(self, params, name="composed-smoke", seeds=(1,)):
        protocol, sim = smoke(1)
        return Scenario.from_configs(
            name, protocol, sim, adversary=composed_spec(**params), seeds=seeds
        )

    def test_scenario_round_trips_through_json(self):
        scenario = self.scenario(
            {
                "targeting": {"kind": "sticky", "coverage": 0.5},
                "vectors": [{"kind": "pipe_stoppage"}, {"kind": "effort_attrition"}],
                "adaptive": {"kind": "rotate"},
            }
        )
        loaded = Scenario.from_json(scenario.to_json())
        assert loaded.adversary.params == scenario.adversary.params
        assert loaded.digest == scenario.digest

    def test_digest_ignores_spelled_out_component_defaults(self):
        implicit = self.scenario({"vectors": [{"kind": "admission_flood"}]})
        explicit = self.scenario(
            {
                "targeting": {"kind": "random_subset", "coverage": 1.0},
                "schedule": {
                    "kind": "on_off",
                    "attack_duration_days": 30.0,
                    "recuperation_days": 30.0,
                    "intensity": 1.0,
                },
                "vectors": [
                    {
                        "kind": "admission_flood",
                        "invitations_per_victim_per_day": 4.0,
                        "identity_pool_size": 400,
                        "identity_prefix": "unknown",
                    }
                ],
                "adaptive": {"kind": "all"},
            }
        )
        assert implicit.digest == explicit.digest

    def test_different_compositions_hash_differently(self):
        pipe = self.scenario({"vectors": [{"kind": "pipe_stoppage"}]})
        flood = self.scenario({"vectors": [{"kind": "admission_flood"}]})
        assert pipe.digest != flood.digest

    def test_structured_scenario_runs_through_a_session(self):
        stacks = [
            (
                {
                    "vectors": [{"kind": "pipe_stoppage"}],
                    "schedule": {"kind": "on_off", "attack_duration_days": 45.0},
                },
                False,
            ),
            # Damage-weighted targeting asks the composed adversary for each
            # victim's weight; the effort_attrition vector pays intro effort.
            (
                {
                    "targeting": {"kind": "weighted_damage", "coverage": 0.5},
                    "vectors": [{"kind": "effort_attrition"}],
                },
                True,
            ),
        ]
        for params, effortful in stacks:
            scenario = self.scenario(params)
            result = Session().run(scenario)
            assert result.attacked_runs[0].failed_polls >= 0
            assert result.scenario_digest == scenario.digest
            again = Session().run(scenario)
            assert run_digest(again.attacked_runs[0]) == run_digest(result.attacked_runs[0])
            assert (result.attacked_runs[0].adversary_effort > 0) is effortful

    def test_unknown_component_kind_fails_at_build_time(self):
        scenario = self.scenario({"vectors": [{"kind": "zero_day"}]})
        with pytest.raises(KeyError):
            Session().run(scenario)


class TestNestedCampaignAxes:
    def base_campaign(self):
        protocol, sim = smoke(1)
        scenario = Scenario.from_configs(
            "matrix",
            protocol,
            sim,
            adversary=composed_spec(
                targeting={"kind": "random_subset", "coverage": 0.5},
                vectors=[{"kind": "pipe_stoppage"}],
            ),
            seeds=(1,),
        )
        campaign = Campaign(name="matrix", scenario=scenario)
        campaign.add_axis(**{"adversary.targeting.kind": ["random_subset", "sticky"]})
        campaign.add_axis(
            **{"adversary.vectors.0.kind": ["pipe_stoppage", "admission_flood"]}
        )
        return campaign

    def test_expansion_mutates_nested_components(self):
        points = self.base_campaign().expand()
        assert len(points) == 4
        kinds = [
            (
                point.scenario.adversary.params["targeting"]["kind"],
                point.scenario.adversary.params["vectors"][0]["kind"],
            )
            for point in points
        ]
        assert kinds == [
            ("random_subset", "pipe_stoppage"),
            ("random_subset", "admission_flood"),
            ("sticky", "pipe_stoppage"),
            ("sticky", "admission_flood"),
        ]
        assert len({point.digest for point in points}) == 4
        # Axis values are recorded as dotted row labels.
        assert points[0].parameters["targeting.kind"] == "random_subset"
        assert points[0].parameters["vectors.0.kind"] == "pipe_stoppage"

    def test_axis_into_an_omitted_component_merges_into_its_default(self):
        """Sweeping e.g. adversary.targeting.coverage must not require the
        spec to spell the targeting component out: the kindless partial the
        axis produces merges into the composition default (random_subset).
        """
        protocol, sim = smoke(1)
        scenario = Scenario.from_configs(
            "partial",
            protocol,
            sim,
            adversary=composed_spec(vectors=[{"kind": "pipe_stoppage"}]),
            seeds=(1,),
        )
        campaign = Campaign(name="partial", scenario=scenario)
        campaign.add_axis(**{"adversary.targeting.coverage": [0.2, 0.5]})
        points = campaign.expand()
        assert len({point.digest for point in points}) == 2
        # The partial spec hashes like the spelled-out equivalent...
        explicit = Scenario.from_configs(
            "partial",
            protocol,
            sim,
            adversary=composed_spec(
                targeting={"kind": "random_subset", "coverage": 0.2},
                vectors=[{"kind": "pipe_stoppage"}],
            ),
            seeds=(1,),
        )
        assert points[0].scenario.digest == explicit.digest
        # ...and builds (and runs) as random_subset at the swept coverage.
        result = Session().run(points[0].scenario)
        assert result.scenario_digest == points[0].digest

    def test_points_do_not_share_nested_spec_structure(self):
        campaign = self.base_campaign()
        points = campaign.expand()
        points[0].scenario.adversary.params["targeting"]["coverage"] = 0.123
        assert points[1].scenario.adversary.params["targeting"]["coverage"] == 0.5
        assert campaign.scenario.adversary.params["targeting"]["coverage"] == 0.5

    def test_campaign_round_trips_through_json(self):
        campaign = self.base_campaign()
        loaded = Campaign.from_json(campaign.to_json())
        assert [point.digest for point in loaded.expand()] == [
            point.digest for point in campaign.expand()
        ]


class TestRngLaneStability:
    def test_vector_lane_survives_sibling_removal(self):
        """Per-component lanes are keyed by kind, not stack position, so
        removing a sibling vector of another kind never re-seeds this one.
        """

        def brute_vector_of(vectors):
            factory = DEFAULT_REGISTRY.factory(
                "composed",
                schedule={"kind": "on_off", "attack_duration_days": 20.0},
                vectors=vectors,
                node_id="lane-stability",
            )
            protocol, sim = smoke(1)
            world = build_world(protocol, sim, adversary_factory=factory)
            for vector in world.adversary.vectors:
                if vector.kind == "brute_force_poll":
                    return vector
            raise AssertionError("no brute_force_poll vector")

        paired = brute_vector_of(
            [{"kind": "admission_flood"}, {"kind": "brute_force_poll"}]
        )
        alone = brute_vector_of([{"kind": "brute_force_poll"}])
        assert paired.rng.random() == alone.rng.random()

    def test_axis_into_missing_vector_list_fails_fast(self):
        """A list-index axis cannot conjure the list: it fails at expansion
        with a pointed message, not later at digest/build time.
        """
        protocol, sim = smoke(1)
        scenario = Scenario.from_configs(
            "no-vectors",
            protocol,
            sim,
            adversary=AdversarySpec("composed", {}),
            seeds=(1,),
        )
        campaign = Campaign(name="no-vectors", scenario=scenario)
        campaign.add_axis(
            **{"adversary.vectors.0.invitations_per_victim_per_day": [4.0, 8.0]}
        )
        with pytest.raises(ValueError, match="spell the list out"):
            campaign.expand()


class TestParallelExecution:
    def test_parallel_equals_serial_for_structured_specs(self):
        """Worker processes rebuild composed adversaries from scenario JSON."""
        campaign = Campaign.load("examples/campaigns/adversary_matrix.json")
        from repro.api.campaign import CampaignRunner

        serial = CampaignRunner(Session(workers=1)).run(campaign)
        with Session(workers=2) as session:
            parallel = CampaignRunner(session).run(campaign)
        serial_runs = [p.result.attacked_runs[0].to_dict() for p in serial]
        parallel_runs = [p.result.attacked_runs[0].to_dict() for p in parallel]
        assert serial_runs == parallel_runs


class TestExampleCampaignFiles:
    @pytest.mark.parametrize(
        "path",
        [
            "examples/campaigns/combined_attack.json",
            "examples/campaigns/adaptive_switch.json",
            "examples/campaigns/adversary_matrix.json",
        ],
    )
    def test_example_campaigns_load_and_expand(self, path):
        campaign = Campaign.load(path)
        points = campaign.expand()
        assert len(points) == len(campaign)
        assert len({point.digest for point in points}) == len(points)
