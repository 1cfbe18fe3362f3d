"""Unit tests for the declarative Scenario API (JSON round-trip, digests,
grid expansion through campaign axes, config resolution)."""

import dataclasses
import enum
import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import AdversarySpec, Campaign, Scenario, config_digest
from repro.api.campaign import plan_fork_groups, prefix_key
from repro.api.scenario import BASE_CONFIGS, apply_axis_value, canonical_json
from repro.config import smoke_config
from repro.experiments import bench


def make_scenario(**overrides):
    fields = dict(
        name="test scenario",
        base="smoke",
        protocol={"quorum": 4},
        sim={"duration": units.months(6), "n_peers": 12},
        adversary=AdversarySpec(
            "pipe_stoppage", {"attack_duration_days": 30.0, "coverage": 1.0}
        ),
        seeds=(1, 2),
    )
    fields.update(overrides)
    return Scenario(**fields)


def grid_points(scenario, grid):
    """The point scenarios of a one-axis-per-target grid over ``scenario``."""
    campaign = Campaign.from_grid("grid", scenario, grid)
    return [point.scenario for point in campaign.expand()]


class TestRoundTrip:
    def test_json_round_trip_preserves_fields(self):
        scenario = make_scenario(parameters={"note": "x"})
        restored = Scenario.from_json(scenario.to_json())
        assert restored.name == scenario.name
        assert restored.base == scenario.base
        assert restored.protocol == scenario.protocol
        assert restored.sim == scenario.sim
        assert restored.adversary == scenario.adversary
        assert restored.seeds == scenario.seeds
        assert restored.parameters == scenario.parameters

    def test_json_round_trip_preserves_digest(self):
        scenario = make_scenario()
        assert Scenario.from_json(scenario.to_json()).digest == scenario.digest

    def test_round_trip_through_file(self, tmp_path):
        scenario = make_scenario()
        path = scenario.save(tmp_path / "scenario.json")
        assert Scenario.load(path).digest == scenario.digest

    def test_tuple_fields_survive_json(self):
        scenario = make_scenario(
            sim={"link_bandwidths": [units.mbps(1.5), units.mbps(10)]}
        )
        restored = Scenario.from_json(scenario.to_json())
        _, sim = restored.resolve()
        assert sim.link_bandwidths == (units.mbps(1.5), units.mbps(10))

    def test_adversary_dict_is_promoted_to_spec(self):
        scenario = make_scenario(
            adversary={"kind": "pipe_stoppage", "params": {"coverage": 0.4}}
        )
        assert isinstance(scenario.adversary, AdversarySpec)
        assert scenario.adversary.kind == "pipe_stoppage"


class TestDigest:
    def test_digest_ignores_the_name(self):
        assert make_scenario(name="a").digest == make_scenario(name="b").digest

    def test_digest_ignores_base_vs_override_spelling(self):
        # The same resolved experiment must hash identically whether it is
        # spelled as a base reference or as explicit overrides.
        spelled_with_base = make_scenario(adversary=None)
        protocol, sim = spelled_with_base.resolve()
        spelled_explicitly = Scenario.from_configs(
            "other name", protocol, sim, seeds=spelled_with_base.seeds
        )
        assert spelled_explicitly.base != spelled_with_base.base
        assert spelled_explicitly.digest == spelled_with_base.digest

    def test_digest_changes_with_config_fields(self):
        assert make_scenario().digest != make_scenario(protocol={"quorum": 5}).digest

    def test_digest_changes_with_seeds_and_adversary(self):
        base = make_scenario()
        assert base.digest != make_scenario(seeds=(1,)).digest
        assert base.digest != make_scenario(adversary=None).digest
        assert (
            base.digest
            != make_scenario(
                adversary=AdversarySpec("pipe_stoppage", {"coverage": 0.4})
            ).digest
        )

    def test_digest_merges_registry_defaults(self):
        # Omitting an adversary parameter and spelling out its registry
        # default describe the same simulation, so they hash identically.
        implicit = make_scenario(adversary=AdversarySpec("pipe_stoppage", {}))
        explicit = make_scenario(
            adversary=AdversarySpec(
                "pipe_stoppage",
                {
                    "attack_duration_days": 30.0,
                    "coverage": 1.0,
                    "recuperation_days": 30.0,
                },
            )
        )
        assert implicit.digest == explicit.digest
        assert implicit.point_digest(1) == explicit.point_digest(1)
        # Unregistered kinds hash over the raw spec without error.
        custom = make_scenario(adversary=AdversarySpec("not_registered", {"x": 1}))
        assert custom.digest != implicit.digest

    def test_digest_is_stable_against_dict_ordering(self):
        a = make_scenario(sim={"n_peers": 12, "duration": units.months(6)})
        b = make_scenario(sim={"duration": units.months(6), "n_peers": 12})
        assert a.digest == b.digest

    def test_config_digest_differs_from_repr_instability(self):
        # The digest depends only on field values, so two structurally equal
        # configs always share it.
        protocol, sim = smoke_config()
        assert config_digest(protocol, sim, seeds=(1,)) == config_digest(
            protocol.with_overrides(), sim.with_overrides(), seeds=(1,)
        )

    def test_baseline_point_digest_drops_the_adversary(self):
        scenario = make_scenario(seeds=(7,))
        attacked = scenario.point_digest(7, baseline=False)
        baseline = scenario.point_digest(7, baseline=True)
        assert attacked != baseline
        assert baseline == make_scenario(seeds=(7,), adversary=None).point_digest(7)


class TestUnknownKeys:
    """A misspelled spec key is an error naming it, not a dropped field."""

    @pytest.mark.parametrize(
        "load, payload, key",
        [
            pytest.param(
                Scenario.from_dict,
                {"name": "x", "adversery": {"kind": "pipe_stoppage"}},
                "adversery",
                id="scenario",
            ),
            pytest.param(
                Scenario.from_dict,
                {"name": "x", "adversary": {"kind": "pipe_stoppage", "param": {}}},
                "param",
                id="scenario-adversary",
            ),
            pytest.param(
                Campaign.from_dict,
                {
                    "name": "c",
                    "scenario": {"name": "x"},
                    "axis": [{"protocol.quorum": [3, 4]}],
                },
                "axis",
                id="campaign",
            ),
            pytest.param(
                Campaign.from_dict,
                {"name": "c", "scenario": {"name": "x", "seed": [1]}},
                "seed",
                id="campaign-scenario",
            ),
            pytest.param(
                AdversarySpec.from_dict,
                {"kind": "pipe_stoppage", "parms": {"coverage": 0.4}},
                "parms",
                id="adversary",
            ),
        ],
    )
    def test_unknown_key_is_rejected(self, load, payload, key):
        with pytest.raises(ValueError, match="unknown .* key.*'%s'" % key):
            load(payload)

    def test_an_empty_sweep_still_loads(self):
        # Traces, checkpoints and broker rows written before sweeps moved
        # into campaign axes carry ``"sweep": {}``.
        scenario = make_scenario()
        payload = scenario.to_dict()
        assert "sweep" not in payload
        assert Scenario.from_dict(dict(payload, sweep={})).digest == scenario.digest


class TestResolve:
    def test_overrides_are_applied(self):
        protocol, sim = make_scenario().resolve()
        assert protocol.quorum == 4
        assert sim.n_peers == 12
        assert sim.duration == units.months(6)

    def test_seed_override(self):
        _, sim = make_scenario().resolve(seed=99)
        assert sim.seed == 99

    def test_unknown_base_is_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", base="nope")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", base="smoke", seeds=())

    def test_from_configs_round_trips_configs(self):
        protocol, sim = smoke_config()
        sim = sim.with_overrides(duration=units.months(5), n_aus=1)
        scenario = Scenario.from_configs("rt", protocol, sim, seeds=(3,))
        resolved_protocol, resolved_sim = scenario.resolve()
        assert resolved_protocol == protocol
        assert resolved_sim == sim


class TestSweepExpansion:
    def test_point_scenario_expands_to_itself(self):
        scenario = make_scenario()
        (point,) = Campaign("point", scenario).expand()
        assert point.digest == scenario.digest
        assert point.scenario.to_dict() == scenario.to_dict()

    def test_axis_order_first_axis_outermost(self):
        points = grid_points(
            make_scenario(),
            {
                "adversary.coverage": [0.4, 1.0],
                "adversary.attack_duration_days": [30.0, 60.0],
            },
        )
        combos = [
            (p.parameters["coverage"], p.parameters["attack_duration_days"])
            for p in points
        ]
        assert combos == [(0.4, 30.0), (0.4, 60.0), (1.0, 30.0), (1.0, 60.0)]

    def test_expansion_merges_axes_into_specs(self):
        scenario = make_scenario()
        points = grid_points(scenario, {"sim.n_aus": [1, 2], "protocol.quorum": [3]})
        assert [p.sim["n_aus"] for p in points] == [1, 2]
        assert all(p.protocol["quorum"] == 3 for p in points)
        # The original scenario is not mutated by expansion.
        assert scenario.sim["n_peers"] == 12
        assert "n_aus" not in scenario.sim

    def test_expansion_records_parameters_and_names(self):
        (point,) = grid_points(make_scenario(), {"adversary.coverage": [0.4]})
        assert point.parameters["coverage"] == 0.4
        assert "coverage=0.4" in point.name

    def test_adversary_axis_without_adversary_fails(self):
        with pytest.raises(ValueError):
            grid_points(make_scenario(adversary=None), {"adversary.coverage": [1.0]})

    def test_malformed_axis_fails(self):
        with pytest.raises(ValueError):
            grid_points(make_scenario(), {"bogus": [1]})

    def test_expanded_points_serialize(self):
        for point in grid_points(make_scenario(), {"adversary.coverage": [0.4, 1.0]}):
            assert Scenario.from_json(point.to_json()).digest == point.digest


def composed_scenario(**overrides):
    """A composed adversary that lurks for 45 days, then strikes (forkable)."""
    fields = dict(
        name="pin composed",
        base="smoke",
        sim={"duration": units.months(5)},
        seeds=(2, 3),
        adversary=AdversarySpec(
            "composed",
            {
                "node_id": "delayed-adversary",
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
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestPinnedStoreKeys:
    """The compatibility contract for existing stores.

    Every other digest comparison in the suite is relative (``a.digest ==
    b.digest``), so a refactor of the hashed payload could move every
    store, checkpoint and lease key with the suite green.  These literals
    were generated at the commit *before* the identity code was
    restructured; a change here orphans every persisted artifact.
    """

    def pinned(self):
        return Scenario(
            name="pin",
            base="smoke",
            seeds=(1, 2),
            adversary=AdversarySpec("pipe_stoppage", {"coverage": 0.4}),
        )

    def test_scenario_run_and_campaign_digests(self):
        s = self.pinned()
        assert s.digest == (
            "0e6e6ab7c914c0f1a3695b450fb29e1e177069bddcb9d0efb189410f7a8dc940"
        )
        assert s.point_digest(1) == (
            "66f3cc3d98f996185f1f8e5ec29ba7eddd96fc4af15303ac71541b419a8d9996"
        )
        assert s.point_digest(2, baseline=True) == (
            "81a2caf487e2ed1b516b9fe87e539a31ebc203791b19b5771d35b29c086a1c2f"
        )
        assert prefix_key(s) == (
            "e6666870fa5c27f98844e8ade19393301e64b1fdb822eac8f7530d01a2071b36"
        )
        campaign = Campaign.from_grid("pin", s, {"adversary.coverage": [0.4, 1.0]})
        assert campaign.digest == (
            "629eee257a5883ab1e6db0c026dd68aa68dd849f1971041247436dfbaf947673"
        )

    def test_faulted_scenario(self):
        s = Scenario(
            name="pin faulted",
            base="smoke",
            seeds=(1, 2),
            adversary=AdversarySpec("admission_flood", {"coverage": 1.0}),
            faults={
                "churn": {"rate_per_peer_per_year": 4.0, "mean_downtime_days": 14.0}
            },
        )
        assert s.digest == (
            "f692b4b05ab9d2ee013f200503b4738fa04e9f096774bb1fd5000831b8e60e75"
        )
        assert s.point_digest(1) == (
            "7e008cdf027852a776613d57dda1830213d6b7416625a20f826decc3715469a5"
        )
        # Faults are environment: they key the baseline run too.
        assert s.point_digest(2, baseline=True) == (
            "5302df962c2f62b3178e39ba664b575e216d5751fdc01ac9817bde1c5d47e7c8"
        )
        assert prefix_key(s) == (
            "ffecd412fd1ab2ff5100dc91008eb8ff2111037f918585eef943815f6cd7ce0a"
        )

    def test_composed_scenario(self):
        s = composed_scenario()
        assert s.digest == (
            "f83dae3efb2e7874cdd92a8d7d8092097040ff219da94e05a496c03a161ab2c0"
        )
        assert s.point_digest(2) == (
            "c787c8093e9c1f99b98793367af9726da93fd6f9150421aafae6124aad63c1da"
        )
        assert s.point_digest(3, baseline=True) == (
            "b4c8c35cf5558b9436319ba3e87e63a66fa8d771dcf81368650df6849b94a37e"
        )
        assert prefix_key(s) == (
            "f33ec1d193decc828d963f9b8929f8f6bfb714dcbe6d104f99f1226e99638ff0"
        )

    def test_sweep_scenario_and_its_points(self):
        # The points a sweep scenario expanded to before sweeps moved into
        # campaign axes: the same grid as a campaign keeps their digests.
        s = Scenario(
            name="pin sweep",
            base="smoke",
            seeds=(1, 2),
            adversary=AdversarySpec("pipe_stoppage", {"coverage": 0.4}),
        )
        grid = {"adversary.coverage": [0.4, 1.0], "protocol.quorum": [4, 5]}
        assert [point.digest for point in grid_points(s, grid)] == [
            "3d1d388fd18a71ff07cd39de363f5c39f0d82a2f9d2b89b44974ec971a34e3a9",
            "4d9eba1066cd3b4f5bf34c2f9c92c83b4475344d9a953d122aa76a9fba18a63c",
            "c3359003e75e8408753a074de720e0167d45d8af8110c999592976eaf4f7d1fb",
            "13b1587e3ff5273e947f1893038a028330ed11f96c771af821bf0d8f461dd737",
        ]

    def test_fork_group_checkpoint_digest(self):
        campaign = Campaign(name="pin fork", scenario=composed_scenario())
        campaign.add_axis(**{"adversary.targeting.coverage": [0.4, 1.0]})
        assert campaign.digest == (
            "6197e614c7284f3bcaf7072016d0d1920b531939e8ade8dc75f157c416b4a0cf"
        )
        first, second = plan_fork_groups(campaign.expand())
        assert (first.seed, first.fork_time) == (2, 45.0 * units.DAY)
        assert first.checkpoint_digest == (
            "66a537bb799b5eab2a32bfb93663d20e322ba4dff0c6425874ff583e33a83985"
        )
        assert [digest for digest, _ in first.members] == [
            "71886bf7b8b1e36c4d869e7876f48a5f05bba8410a7834652b76465a7c77476d",
            "866e0c9a92e0678ba929b2bab8531d0310c53b253dc2d5438b4494e191bc27cd",
            "c787c8093e9c1f99b98793367af9726da93fd6f9150421aafae6124aad63c1da",
        ]
        assert second.seed == 3
        assert second.checkpoint_digest == (
            "3a66c2f0ab85de5e0988152009fe6b7f9112d1d624d1dd13edae9fb0d42e39fa"
        )


def expected_run_keys(scenario):
    """``run_keys()`` spelled the long way: one ``point_digest`` per run."""
    keys = [(seed, False, scenario.point_digest(seed)) for seed in scenario.seeds]
    if scenario.adversary is not None:
        keys += [
            (seed, True, scenario.point_digest(seed, baseline=True))
            for seed in scenario.seeds
        ]
    return keys


def record_replay_shaped_campaigns():
    """The faulted / brute-force / flood campaign shapes of the perf workloads."""
    protocol, sim = bench.bench_configs(duration=units.months(1))
    flood = AdversarySpec(
        "admission_flood",
        {
            "attack_duration_days": 10.0,
            "coverage": 1.0,
            "invitations_per_victim_per_day": 4.0,
        },
    )
    effortful = AdversarySpec("brute_force", {"attempts_per_victim_au_per_day": 5.0})
    partition = {
        "partitions": [{"start_day": 10.0, "duration_days": 5.0, "fraction": 0.4}]
    }
    return [
        Campaign.from_grid(
            "effortful",
            Scenario.from_configs("e", protocol, sim, adversary=effortful, seeds=(7,)),
            {"adversary.defection": ["intro", "remaining", "none"]},
        ),
        Campaign.from_grid(
            "flood",
            Scenario.from_configs("f", protocol, sim, adversary=flood, seeds=(7, 8)),
            {"adversary.coverage": [0.4, 1.0]},
        ),
        Campaign.from_grid(
            "partition",
            Scenario.from_configs(
                "p", protocol, sim, adversary=flood, faults=partition, seeds=(7,)
            ),
            {"faults.partitions.0.duration_days": [5.0, 20.0]},
        ),
    ]


class TestRunKeys:
    """``run_keys()`` and the stored ``CampaignPoint.digest`` are single sources:
    they must say what ``point_digest`` / ``digest`` say, for every campaign
    shape the repo runs, and must never be cached on the mutable scenario."""

    @pytest.mark.parametrize("name", sorted(bench.ARTIFACTS))
    def test_every_artifact_point(self, name):
        self.check_campaign(bench.artifact_campaign(name))

    def test_record_replay_shaped_campaigns(self):
        for campaign in record_replay_shaped_campaigns():
            self.check_campaign(campaign)

    @staticmethod
    def check_campaign(campaign):
        points = campaign.expand()
        assert len(points) == len(campaign)
        for point in points:
            scenario = point.scenario
            keys = scenario.run_keys()
            assert keys == expected_run_keys(scenario)
            if scenario.adversary is None:
                assert not any(baseline for _, baseline, _ in keys)
            assert point.digest == scenario.digest

    def test_mutation_is_seen_no_cache(self):
        scenario = make_scenario()
        before = (scenario.digest, scenario.run_keys())

        apply_axis_value(scenario, "adversary.coverage", 0.4)
        fresh = make_scenario()
        fresh.adversary.params["coverage"] = 0.4
        after_axis = (scenario.digest, scenario.run_keys())
        assert after_axis != before
        assert after_axis == (fresh.digest, fresh.run_keys())

        scenario.seeds = (5, 6, 7)
        fresh.seeds = (5, 6, 7)
        after_seeds = (scenario.digest, scenario.run_keys())
        assert after_seeds != after_axis
        assert after_seeds == (fresh.digest, expected_run_keys(fresh))
        assert [seed for seed, _, _ in after_seeds[1]] == [5, 6, 7, 5, 6, 7]

        scenario.adversary.params["attack_duration_days"] = 99.0
        rebuilt = make_scenario(
            seeds=(5, 6, 7),
            adversary=AdversarySpec(
                "pipe_stoppage", {"attack_duration_days": 99.0, "coverage": 0.4}
            ),
        )
        assert scenario.digest != after_seeds[0]
        assert (scenario.digest, scenario.run_keys()) == (
            rebuilt.digest,
            rebuilt.run_keys(),
        )

    def test_run_metrics_baseline_without_an_adversary_is_the_attacked_run(self):
        from repro.api import Session

        scenario = make_scenario(adversary=None, seeds=(1,), sim={"n_peers": 8})
        session = Session()
        assert session.run_metrics(scenario, baseline=True) == session.run_metrics(
            scenario
        )


# -- the digest formula --------------------------------------------------------------


def reference_config_digest(protocol, sim, seeds=(), adversary=None, extra=None):
    """The digest formula as first written, kept verbatim as the reference:
    a deep ``asdict`` of both configs, canonical JSON, SHA-256."""
    payload = {
        "protocol": dataclasses.asdict(protocol),
        "sim": dataclasses.asdict(sim),
        "seeds": list(seeds),
        "adversary": adversary,
        "extra": extra,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def reference_identity(scenario):
    """``(digest, run_keys())`` of ``scenario`` through the reference formula."""
    protocol, sim = scenario.resolve()
    adversary = scenario._canonical_adversary()
    faults = scenario._canonical_faults()
    extra = {"faults": faults} if faults is not None else None
    digest = reference_config_digest(protocol, sim, scenario.seeds, adversary, extra)
    sides = (False, True) if scenario.adversary is not None else (False,)
    runs = [
        (
            seed,
            baseline,
            reference_config_digest(
                protocol,
                sim.with_overrides(seed=int(seed)),
                (seed,),
                None if baseline else adversary,
                extra,
            ),
        )
        for baseline in sides
        for seed in scenario.seeds
    ]
    return digest, runs


class Shade(enum.Enum):
    DARK = "dark"
    LIGHT = "light"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e9)
unit_interval = st.floats(min_value=0.0, max_value=1.0)


def tuple_or_list(values):
    """JSON decodes a tuple field as a list; overrides arrive both ways."""
    return values.flatmap(lambda items: st.sampled_from([list(items), tuple(items)]))


protocol_overrides = st.fixed_dictionaries(
    {},
    optional={
        "quorum": st.integers(1, 40),
        "admission_control_enabled": st.booleans(),
        "poll_interval": positive,
        "drop_probability_debt": unit_interval,
        "max_invitation_retries": st.integers(0, 10),
        "session_setup_cost": finite,
        "rate_limit_factor": finite,
    },
)
sim_overrides = st.fixed_dictionaries(
    {},
    optional={
        "n_peers": st.integers(2, 1000),
        "n_aus": st.integers(1, 100),
        "duration": positive,
        "warmup": finite,
        "storage_damage_inflation": st.floats(min_value=0.0, max_value=1e3),
        "link_bandwidths": tuple_or_list(st.lists(positive, min_size=1, max_size=4)),
        "link_latency_range": tuple_or_list(
            st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2).map(sorted)
        ),
        "seed": st.integers(0, 2**63),
    },
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    st.text(max_size=5),
    st.sampled_from(list(Shade) + list(Level)),
)
nested_params = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=10,
    ),
    max_size=4,
)
adversaries = st.one_of(
    st.none(),
    # Unregistered kinds hash over the raw spec: nested dicts, lists, enums.
    nested_params.map(lambda params: AdversarySpec("unregistered_kind", params)),
    st.builds(
        lambda coverage, days: AdversarySpec(
            "pipe_stoppage", {"coverage": coverage, "attack_duration_days": days}
        ),
        st.floats(0.01, 1.0),
        positive,
    ),
    st.builds(
        lambda coverage, days: AdversarySpec(
            "composed",
            {
                "targeting": {"kind": "random_subset", "coverage": coverage},
                "schedule": {
                    "kind": "piecewise",
                    "phases": [
                        {"duration_days": days, "intensity": 0.0, "gap_days": 0.0},
                        {"duration_days": 20.0, "intensity": 1.0, "gap_days": 10.0},
                    ],
                },
                "vectors": [{"kind": "pipe_stoppage"}],
            },
        ),
        st.floats(0.01, 1.0),
        st.floats(1.0, 100.0),
    ),
)
fault_plans = st.one_of(
    st.just({}),
    st.builds(
        lambda rate, downtime: {
            "churn": {"rate_per_peer_per_year": rate, "mean_downtime_days": downtime}
        },
        st.floats(0.0, 50.0),
        st.floats(0.1, 100.0),
    ),
    st.builds(
        lambda start, length, fraction: {
            "partitions": [
                {"start_day": start, "duration_days": length, "fraction": fraction}
            ]
        },
        st.floats(0.0, 300.0),
        st.floats(0.1, 60.0),
        st.floats(0.05, 0.95),
    ),
)
scenarios = st.builds(
    Scenario,
    name=st.just("property"),
    base=st.sampled_from(sorted(BASE_CONFIGS)),
    protocol=protocol_overrides,
    sim=sim_overrides,
    adversary=adversaries,
    faults=fault_plans,
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
)


#: Campaign bases: point scenarios with several seeds and an adversary (or
#: none) that ``adversary.attack_duration_days`` axes can address.
campaign_bases = st.builds(
    Scenario,
    name=st.just("property"),
    base=st.sampled_from(sorted(BASE_CONFIGS)),
    protocol=protocol_overrides,
    sim=sim_overrides,
    adversary=st.one_of(
        st.none(),
        st.floats(0.01, 1.0).map(
            lambda coverage: AdversarySpec("pipe_stoppage", {"coverage": coverage})
        ),
    ),
    faults=fault_plans,
    seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=3, unique=True),
)


def few(values):
    """Short value lists, repeats allowed: several points share override sets."""
    return st.lists(values, min_size=1, max_size=3)


class TestDigestFormula:
    """The digest hashes the configs' field values directly; these pin it to
    the original deep-``asdict`` formula, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(scenario=scenarios)
    def test_scenario_digest_and_run_keys_match_the_reference(self, scenario):
        assert (scenario.digest, scenario.run_keys()) == reference_identity(scenario)

    @settings(max_examples=60, deadline=None)
    @given(
        base=campaign_bases,
        quorums=few(st.integers(1, 9)),
        aus=few(st.integers(1, 4)),
        churn=few(st.sampled_from([0.0, 2.0, 8.0])),
        days=few(st.sampled_from([10.0, 30.0])),
    )
    def test_campaign_points_match_the_reference(self, base, quorums, aus, churn, days):
        # Axes on every prefix scope plus the adversary: ``expand()`` builds
        # each point's identity from a table of override sets, and several
        # override sets (and several points per set) make one campaign.
        grid = {
            "protocol.quorum": quorums,
            "sim.n_aus": aus,
            "faults.churn.rate_per_peer_per_year": churn,
        }
        if base.adversary is not None:
            grid["adversary.attack_duration_days"] = days
        for point in Campaign.from_grid("property", base, grid).expand():
            assert (point.digest, point.run_keys) == reference_identity(point.scenario)

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios, adversary=nested_params, extra=nested_params)
    def test_config_digest_matches_the_reference(self, scenario, adversary, extra):
        # The public function takes raw specs: enums and tuples included.
        protocol, sim = scenario.resolve()
        assert config_digest(
            protocol, sim, scenario.seeds, adversary, extra
        ) == reference_config_digest(protocol, sim, scenario.seeds, adversary, extra)

    @pytest.mark.parametrize("base", sorted(BASE_CONFIGS))
    def test_every_config_field_is_a_json_scalar_or_a_tuple_of_them(self, base):
        # What makes hashing the values directly equal to the asdict walk.
        scalars = (bool, int, float, str, type(None))
        for config in BASE_CONFIGS[base]():
            for field in dataclasses.fields(config):
                value = getattr(config, field.name)
                items = value if isinstance(value, tuple) else (value,)
                assert all(type(item) in scalars for item in items), (
                    "%s.%s = %r is not a JSON scalar or a tuple of them: the "
                    "digest would no longer hash what dataclasses.asdict gives"
                    % (type(config).__name__, field.name, value)
                )


class TestBadOverrides:
    """A digest resolves, and so validates, both configs: a bad override
    fails when the point is named, not later inside a worker."""

    def test_campaign_expand_rejects_a_bad_protocol_axis(self):
        campaign = Campaign.from_grid("bad", make_scenario(), {"protocol.quorum": [0]})
        with pytest.raises(ValueError, match="quorum must be at least 1"):
            campaign.expand()

    def test_a_bad_point_after_good_ones_still_fails(self):
        # Points that share an override set resolve once; a new set is
        # resolved, and so validated, however many points came before it.
        campaign = Campaign.from_grid(
            "bad",
            make_scenario(),
            {"sim.n_peers": [12, 1], "adversary.coverage": [0.5, 1.0]},
        )
        with pytest.raises(ValueError, match="at least two peers"):
            campaign.expand()

    def test_scenario_digest_and_run_keys_reject_a_bad_sim_override(self):
        scenario = make_scenario(sim={"n_peers": 1})
        with pytest.raises(ValueError, match="at least two peers"):
            scenario.digest
        with pytest.raises(ValueError, match="at least two peers"):
            scenario.run_keys()


# -- the cost of a point identity -----------------------------------------------------


def python_calls(fn):
    """``sys.setprofile`` ``"call"`` events while ``fn()`` runs (``fn`` included)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestIdentityCost:
    """Python calls per point identity, on the ``campaign_store`` benchmark's
    point shape: a deterministic count, unlike a time.

    The deep ``asdict`` formula cost 384 / 737 / 407 calls here on Python
    3.11; hashing the field values directly costs 52 / 61 / 75.  Encoding
    each override set once, with run seeds spliced into the sim text, makes
    that 46 / 56 / 53, and ``expand()`` now includes every point's run keys,
    which took 136 calls a point before.  The bounds
    leave room for 3.10-3.12 differences (3.12 inlines comprehensions) and
    fail on any return of a per-field walk or a per-point resolution.
    """

    @pytest.fixture(scope="class")
    def campaign(self):
        protocol, sim = bench.bench_configs(duration=units.months(3))
        base = Scenario.from_configs(
            "campaign_store",
            protocol,
            sim,
            adversary=AdversarySpec("pipe_stoppage", {}),
            seeds=(1,),
        )
        return Campaign.from_grid(
            "campaign_store",
            base,
            {
                "adversary.coverage": [round((i + 1) / 10, 4) for i in range(10)],
                "adversary.attack_duration_days": [5.0 * (j + 1) for j in range(8)],
            },
        )

    @pytest.fixture(scope="class")
    def point(self, campaign):
        point = campaign.expand()[5]
        # The benchmark's point #5 at seed 1: the same shape, not a look-alike.
        assert point.digest == (
            "2396032ebacc5ea0341c586db0a5d319c1d77d384af984b5f0fb81c36496d61c"
        )
        point.scenario.run_keys()  # warm: first calls import lazily
        return point.scenario

    def test_scenario_digest(self, point):
        assert python_calls(lambda: point.digest) <= 96

    def test_run_keys(self, point):
        assert python_calls(point.run_keys) <= 184

    def test_campaign_expand_per_point(self, campaign, point):
        assert python_calls(campaign.expand) / len(campaign) <= 102

    def test_campaign_expand_with_every_run_key_per_point(self, campaign, point):
        def identities():
            return [point.run_keys for point in campaign.expand()]

        assert python_calls(identities) / len(campaign) <= 80
