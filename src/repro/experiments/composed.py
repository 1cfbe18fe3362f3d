"""Composed-adversary scenario families: combined and adaptive attacks.

The paper's taxonomy (Sections 4 and 6.2) explicitly includes *combinations*
of attrition attacks and adversaries that adapt their strategy to what they
observe.  With the composable strategy API these are campaign definitions,
not new adversary classes:

* :func:`combined_attack_campaign` — a multi-vector stack running the
  network-level pipe stoppage and the protocol-level admission flood
  *concurrently* against the same victim cycles, swept over targeting
  coverage.
* :func:`adaptive_attack_campaign` — a vector-switching attacker that probes
  with the effortful brute-force vector and escalates to pipe stoppage once
  its observed admission rate degrades past a threshold (swept over the
  switching threshold).
* :func:`adversary_matrix_campaign` — the 2x2 (targeting kind x attack
  vector) mini-grid used by the ``adversary-matrix`` CI smoke job: one axis
  swaps the targeting policy, the other swaps the attack vector, exercising
  per-component sweeps end to end.
* :func:`delayed_attack_campaign` — a coverage sweep behind a long
  zero-intensity lead phase (the adversary lurks, then strikes); the
  benchmark shape for ``campaign run --fork-prefixes`` prefix reuse.

All of them are plain :class:`~repro.api.Campaign` objects over structured
``"composed"`` adversary specs, so they round-trip through JSON, run through
the CLI (``repro-experiments campaign run ...``), resume from a store, and
digest-check against ``benchmarks/bench_baseline.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import AdversarySpec, Campaign, Scenario
from ..api.resultset import ResultSet, row_exporter
from ..config import ProtocolConfig, SimulationConfig
from .configs import resolve_base_configs


def composed_scenario(
    name: str,
    targeting: Optional[Dict[str, object]] = None,
    schedule: Optional[Dict[str, object]] = None,
    vectors: Optional[Sequence[Dict[str, object]]] = None,
    adaptive: Optional[Dict[str, object]] = None,
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    node_id: str = "composed-adversary",
) -> Scenario:
    """One point scenario around a structured ``"composed"`` adversary spec."""
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    params: Dict[str, object] = {"node_id": node_id}
    if targeting is not None:
        params["targeting"] = dict(targeting)
    if schedule is not None:
        params["schedule"] = dict(schedule)
    if vectors is not None:
        params["vectors"] = [dict(spec) for spec in vectors]
    if adaptive is not None:
        params["adaptive"] = dict(adaptive)
    return Scenario.from_configs(
        name,
        base_protocol,
        base_sim,
        adversary=AdversarySpec("composed", params),
        seeds=tuple(seeds),
    )


def combined_attack_campaign(
    coverages: Sequence[float] = (0.4, 1.0),
    attack_duration_days: float = 30.0,
    recuperation_days: float = 30.0,
    invitations_per_victim_per_day: float = 6.0,
    attempts_per_victim_au_per_day: float = 5.0,
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    name: str = "combined-attack",
) -> Campaign:
    """Admission flood + effortful brute force concurrently, swept over coverage.

    The two *protocol-level* vectors genuinely compose when run in the same
    windows against the same victims: the garbage flood keeps tripping the
    victims' refractory periods while the effortful solicitations pay real
    introductory effort to consume their schedules — the paper's combined
    attrition attack as one component stack.  (A network blackout cannot be
    combined *concurrently* with message-borne vectors against the same
    victims — it would drop their traffic too; sequence it with the
    ``rotate`` adaptive policy or a ``piecewise`` schedule instead.)
    """
    scenario = composed_scenario(
        name,
        targeting={"kind": "random_subset", "coverage": 1.0},
        schedule={
            "kind": "on_off",
            "attack_duration_days": attack_duration_days,
            "recuperation_days": recuperation_days,
        },
        vectors=[
            {
                "kind": "admission_flood",
                "invitations_per_victim_per_day": invitations_per_victim_per_day,
            },
            {
                "kind": "brute_force_poll",
                "attempts_per_victim_au_per_day": attempts_per_victim_au_per_day,
            },
        ],
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        node_id="combined-adversary",
    )
    campaign = Campaign(name=name, scenario=scenario, exporter="composed_attack")
    campaign.add_axis(**{"adversary.targeting.coverage": list(coverages)})
    return campaign


def adaptive_attack_campaign(
    thresholds: Sequence[float] = (0.05, 0.95),
    attack_duration_days: float = 20.0,
    recuperation_days: float = 10.0,
    attempts_per_victim_au_per_day: float = 5.0,
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    name: str = "adaptive-attack",
) -> Campaign:
    """Vector-switching attacker, swept over its escalation threshold.

    Probes with the effortful brute-force vector; at each window boundary it
    compares the probe's observed per-window admission rate (PollAcks per
    invitation) to ``threshold`` and permanently escalates to the effortless
    pipe-stoppage vector when the defenses have degraded it — the adaptive
    adversary of Section 6.2 as a declarative spec.
    """
    scenario = composed_scenario(
        name,
        targeting={"kind": "sticky", "coverage": 1.0},
        schedule={
            "kind": "on_off",
            "attack_duration_days": attack_duration_days,
            "recuperation_days": recuperation_days,
        },
        vectors=[
            {
                "kind": "brute_force_poll",
                "attempts_per_victim_au_per_day": attempts_per_victim_au_per_day,
            },
            {"kind": "pipe_stoppage"},
        ],
        adaptive={
            "kind": "threshold_switch",
            "metric": "admission_rate",
            "threshold": 0.5,
            "probe": 0,
            "escalation": 1,
            "grace_windows": 1,
        },
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        node_id="adaptive-adversary",
    )
    campaign = Campaign(name=name, scenario=scenario, exporter="composed_attack")
    campaign.add_axis(**{"adversary.adaptive.threshold": list(thresholds)})
    return campaign


def delayed_attack_campaign(
    coverages: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    onset_day: float = 165.0,
    attack_duration_days: float = 40.0,
    recuperation_days: float = 20.0,
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    name: str = "delayed_attack_sweep",
) -> Campaign:
    """A pipe-stoppage sweep whose attack only begins at ``onset_day``.

    The leading zero-intensity ``piecewise`` phase models the paper's
    strategic adversary who lurks through most of the archive's history
    before striking.  Because every point shares the long quiescent prefix
    (only the suffix axis ``adversary.targeting.coverage`` varies), this is
    the campaign shape where ``--fork-prefixes`` pays best: the prefix is
    simulated once per seed and every coverage forks from its checkpoint.
    The default onset deliberately sits between sampling instants (day 165
    with 2-day sampling) so fork-time event ordering is exercised off the
    measurement grid.
    """
    scenario = composed_scenario(
        name,
        targeting={"kind": "random_subset", "coverage": 1.0},
        schedule={
            "kind": "piecewise",
            "phases": [
                {
                    "duration_days": onset_day,
                    "intensity": 0.0,
                    "gap_days": 0.0,
                },
                {
                    "duration_days": attack_duration_days,
                    "intensity": 1.0,
                    "gap_days": recuperation_days,
                },
            ],
            "repeat": True,
        },
        vectors=[{"kind": "pipe_stoppage"}],
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        node_id="delayed-adversary",
    )
    campaign = Campaign(name=name, scenario=scenario, exporter="composed_attack")
    campaign.add_axis(**{"adversary.targeting.coverage": list(coverages)})
    return campaign


def adversary_matrix_campaign(
    attack_duration_days: float = 30.0,
    recuperation_days: float = 30.0,
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    name: str = "adversary_matrix",
) -> Campaign:
    """The targeting x vector mini-grid (CI smoke: 2x2).

    Sweeping ``adversary.targeting.kind`` and ``adversary.vectors.0.kind``
    exercises per-component campaign axes end to end: every point is a
    different composition, each with its own stable content digest.
    """
    targeting_kinds = ["random_subset", "sticky"]
    vector_kinds = ["pipe_stoppage", "admission_flood"]
    scenario = composed_scenario(
        name,
        targeting={"kind": targeting_kinds[0], "coverage": 0.5},
        schedule={
            "kind": "on_off",
            "attack_duration_days": attack_duration_days,
            "recuperation_days": recuperation_days,
        },
        vectors=[{"kind": vector_kinds[0]}],
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        node_id="matrix-adversary",
    )
    campaign = Campaign(name=name, scenario=scenario, exporter="composed_attack")
    campaign.add_axis(**{"adversary.targeting.kind": targeting_kinds})
    campaign.add_axis(**{"adversary.vectors.0.kind": vector_kinds})
    return campaign


@row_exporter("composed_attack")
def composed_attack_export(results: ResultSet) -> List[Dict[str, object]]:
    """One row per composed-attack point: axis values plus the paper metrics."""
    rows: List[Dict[str, object]] = []
    for point in results:
        assessment = point.assessment
        row: Dict[str, object] = {
            "label": point.label,
            "access_failure_probability": assessment.access_failure_probability,
            "delay_ratio": assessment.delay_ratio,
            "coefficient_of_friction": assessment.coefficient_of_friction,
            "cost_ratio": assessment.cost_ratio,
            "successful_polls": point.attacked.polls.successful,
            "failed_polls": point.attacked.polls.failed,
        }
        row.update(point.parameters)
        rows.append(row)
    return rows
