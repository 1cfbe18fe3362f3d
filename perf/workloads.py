"""The five benchmark workloads, generated from ``--seed``.

Every workload is a list of :class:`~repro.api.Campaign` objects plus the
way to execute them (see :data:`WORKLOADS`).  The protocol/simulation values
below are a *copy* of the seed's bench-scale configuration
(``repro.experiments.bench.bench_configs``): the benchmark owns its inputs,
so a later edit to ``src/`` cannot silently move a workload.

One "round" of a workload is the unit ``perf.run`` repeats until its time
budget is spent; ``SIZES`` holds the round sizes (``full``) and the tiny
sizes the smoke tests use (``smoke``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro import units
from repro.api import AdversarySpec, Campaign, Scenario
from repro.config import ProtocolConfig, SimulationConfig


def bench_configs(
    n_aus: int = 1, duration: float = units.months(9)
) -> Tuple[ProtocolConfig, SimulationConfig]:
    """Bench-scale configs: 10 peers, quorum 3, damage inflation 60."""
    protocol = ProtocolConfig(
        quorum=3,
        max_disagreeing_votes=1,
        outer_circle_size=3,
        reference_list_target_size=12,
        nominations_per_vote=3,
        friend_bias_count=1,
    )
    sim = SimulationConfig(
        n_peers=10,
        n_aus=n_aus,
        au_size=8 * units.MB,
        block_size=units.MB,
        duration=duration,
        sampling_interval=units.days(2),
        initial_reference_list_size=8,
        friends_list_size=2,
        storage_damage_inflation=60.0,
        seed=1,
    )
    return protocol, sim


#: Round sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` only has
#: to build, run and repeat its digests in well under a second per workload.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "flood_kernel": {"months": 9, "attack_days": 120.0, "rate": 96.0},
        "population_protocol": {"peers": 400, "aus": 2, "months": 6},
        "campaign_store": {"coverages": 10, "durations": 8, "months": 3},
        "fleet_http": {"coverages": 40, "durations": 8, "months": 3},
        "record_replay": {"months": 6, "attack_days": 80.0, "rate": 12.0},
    },
    "smoke": {
        "flood_kernel": {"months": 1, "attack_days": 10.0, "rate": 8.0},
        "population_protocol": {"peers": 12, "aus": 1, "months": 1},
        "campaign_store": {"coverages": 2, "durations": 2, "months": 1},
        "fleet_http": {"coverages": 2, "durations": 2, "months": 1},
        "record_replay": {"months": 1, "attack_days": 10.0, "rate": 4.0},
    },
}


def flood_kernel(seed: int, size: Dict[str, float]) -> List[Campaign]:
    """Admission control on/off under a full-coverage garbage flood."""
    protocol, sim = bench_configs(duration=units.months(size["months"]))
    base = Scenario.from_configs(
        "flood_kernel",
        protocol,
        sim,
        adversary=AdversarySpec(
            "admission_flood",
            {
                "attack_duration_days": size["attack_days"],
                "coverage": 1.0,
                "invitations_per_victim_per_day": size["rate"],
            },
        ),
        seeds=(seed,),
    )
    return [
        Campaign.from_grid(
            "flood_kernel",
            base,
            {"protocol.admission_control_enabled": [True, False]},
        )
    ]


def population_protocol(seed: int, size: Dict[str, float]) -> List[Campaign]:
    """Pipe stoppage on a large population: real polls, per-peer memory."""
    protocol, sim = bench_configs(
        n_aus=int(size["aus"]), duration=units.months(size["months"])
    )
    peers = int(size["peers"])
    sim = sim.with_overrides(
        n_peers=peers,
        initial_reference_list_size=min(30, peers - 1),
        friends_list_size=min(5, peers - 1),
    )
    base = Scenario.from_configs(
        "population_protocol",
        protocol,
        sim,
        adversary=AdversarySpec(
            "pipe_stoppage",
            {
                "attack_duration_days": 20.0,
                "coverage": 0.4,
                "recuperation_days": 30.0,
            },
        ),
        seeds=(seed,),
    )
    return [Campaign(name="population_protocol", scenario=base)]


def _stoppage_grid(name: str, seed: int, size: Dict[str, float]) -> List[Campaign]:
    """``coverages`` x ``durations`` tiny pipe-stoppage points."""
    protocol, sim = bench_configs(duration=units.months(size["months"]))
    base = Scenario.from_configs(
        name,
        protocol,
        sim,
        adversary=AdversarySpec("pipe_stoppage", {}),
        seeds=(seed,),
    )
    coverages = int(size["coverages"])
    durations = int(size["durations"])
    return [
        Campaign.from_grid(
            name,
            base,
            {
                "adversary.coverage": [
                    round((i + 1) / coverages, 4) for i in range(coverages)
                ],
                "adversary.attack_duration_days": [
                    5.0 * (j + 1) for j in range(durations)
                ],
            },
        )
    ]


def campaign_store(seed: int, size: Dict[str, float]) -> List[Campaign]:
    """Many tiny points through ``CampaignRunner`` on a directory store."""
    return _stoppage_grid("campaign_store", seed, size)


def fleet_http(seed: int, size: Dict[str, float]) -> List[Campaign]:
    """The same point shape through ``serve`` + ``worker`` over HTTP."""
    return _stoppage_grid("fleet_http", seed, size)


def record_replay(seed: int, size: Dict[str, float]) -> List[Campaign]:
    """Three small recorded campaigns; together all six tracer taps fire."""
    protocol, sim = bench_configs(duration=units.months(size["months"]))
    effortful = Scenario.from_configs(
        "record_effortful",
        protocol,
        sim,
        adversary=AdversarySpec(
            "brute_force", {"attempts_per_victim_au_per_day": 5.0}
        ),
        seeds=(seed,),
    )
    flood_spec = AdversarySpec(
        "admission_flood",
        {
            "attack_duration_days": size["attack_days"],
            "coverage": 1.0,
            "invitations_per_victim_per_day": size["rate"],
        },
    )
    flood = Scenario.from_configs(
        "record_flood", protocol, sim, adversary=flood_spec, seeds=(seed,)
    )
    partitioned = Scenario.from_configs(
        "record_partition",
        protocol,
        sim,
        adversary=flood_spec.with_params(),
        faults={
            "partitions": [
                {"start_day": 10.0, "duration_days": 5.0, "fraction": 0.4}
            ]
        },
        seeds=(seed,),
    )
    return [
        Campaign.from_grid(
            "record_effortful",
            effortful,
            {"adversary.defection": ["intro", "remaining", "none"]},
        ),
        Campaign.from_grid(
            "record_flood", flood, {"adversary.coverage": [0.4, 1.0]}
        ),
        Campaign.from_grid(
            "record_partition",
            partitioned,
            {"faults.partitions.0.duration_days": [5.0, 20.0]},
        ),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Dict[str, float]], List[Campaign]]
    #: ``session``: CampaignRunner on a directory store in this process;
    #: ``fleet``: ``repro.cli serve`` + ``worker`` subprocesses over HTTP.
    executor: str
    #: ``report``: cold campaign reports from the warm store (or ``/rows``
    #: fetches); ``replay``: ``replay_trace`` over every recorded trace.
    read_phase: str
    #: what ``work_per_s`` counts: simulated ``events`` where the kernel does
    #: the work, completed ``points`` where the per-point overhead does
    work: str
    record: bool = False

    def campaigns(self, seed: int, scale: str = "full") -> List[Campaign]:
        return self.build(seed, SIZES[scale][self.name])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("flood_kernel", flood_kernel, "session", "report", "events"),
        Workload("population_protocol", population_protocol, "session", "report", "events"),
        Workload("campaign_store", campaign_store, "session", "report", "points"),
        Workload("fleet_http", fleet_http, "fleet", "report", "points"),
        Workload("record_replay", record_replay, "session", "replay", "events", record=True),
    )
}
