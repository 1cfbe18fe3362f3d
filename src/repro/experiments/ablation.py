"""Ablations of individual attrition defenses.

The paper argues for a *combination* of defenses; these ablations quantify
what each one buys by re-running an attack with a single defense weakened or
disabled.  Every ablation is a declarative
:class:`~repro.api.campaign.Campaign` — the weakened defense is just a
protocol-config axis over the base scenario — executed through the shared
:class:`~repro.api.Session`:

* **Admission control** — the garbage-invitation flood with the
  admission-control filter enabled vs. disabled
  (``protocol.admission_control_enabled``).  Without the filter every
  garbage invitation is considered (session + verification cost), so the
  attacker's effortless flood translates directly into defender effort.
* **Effort balancing** — the brute-force INTRO-defection (reservation) attack
  with the paper's 20% introductory-effort toll vs. a near-zero toll
  (``protocol.introductory_effort_fraction``).  With a trivial toll the
  attacker wastes victims' schedule slots at almost no cost to itself, which
  shows up as a collapsing cost ratio.
* **Desynchronization** — normal individually-scheduled solicitation spread
  over most of the poll interval vs. a compressed window where all votes must
  be produced almost simultaneously, which creates scheduling contention and
  refusals even without an attack.  (This one is a zip axis: the ``mode``
  label advances in lockstep with the two protocol fields it describes.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import units
from ..api import AdversarySpec, Campaign, Scenario
from ..api.resultset import ResultSet, row_exporter
from ..config import ProtocolConfig, SimulationConfig
from .configs import resolve_base_configs


# -- admission control ------------------------------------------------------------------


def admission_ablation_campaign(
    attack_duration_days: float = 120.0,
    coverage: float = 1.0,
    invitations_per_victim_per_day: float = 96.0,
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    name: str = "ablation-admission",
) -> Campaign:
    """Garbage flood with the admission-control defense on vs. off."""
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    base = Scenario.from_configs(
        name,
        base_protocol,
        base_sim,
        adversary=AdversarySpec(
            "admission_flood",
            {
                "attack_duration_days": attack_duration_days,
                "coverage": coverage,
                "invitations_per_victim_per_day": invitations_per_victim_per_day,
            },
        ),
        seeds=tuple(seeds),
    )
    campaign = Campaign(name=name, scenario=base, exporter="ablation_admission")
    campaign.add_axis(**{"protocol.admission_control_enabled": [True, False]})
    return campaign


@row_exporter("ablation_admission")
def admission_ablation_export(results: ResultSet) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for point in results:
        assessment = point.assessment
        rows.append(
            {
                "admission_control": point.parameters["admission_control_enabled"],
                "coefficient_of_friction": assessment.coefficient_of_friction,
                "delay_ratio": assessment.delay_ratio,
                "access_failure_probability": assessment.access_failure_probability,
                "loyal_effort": point.attacked.effort.loyal,
            }
        )
    return rows


# -- effort balancing -------------------------------------------------------------------


def effort_ablation_campaign(
    introductory_fractions: Sequence[float] = (0.20, 0.02),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    attempts_per_victim_au_per_day: float = 5.0,
    name: str = "ablation-effort",
) -> Campaign:
    """Reservation attack under a sweep of introductory-effort tolls."""
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    base = Scenario.from_configs(
        name,
        base_protocol,
        base_sim,
        adversary=AdversarySpec(
            "brute_force",
            {
                "defection": "intro",
                "attempts_per_victim_au_per_day": attempts_per_victim_au_per_day,
            },
        ),
        seeds=tuple(seeds),
    )
    campaign = Campaign(name=name, scenario=base, exporter="ablation_effort")
    campaign.add_axis(
        **{"protocol.introductory_effort_fraction": list(introductory_fractions)}
    )
    return campaign


@row_exporter("ablation_effort")
def effort_ablation_export(results: ResultSet) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for point in results:
        assessment = point.assessment
        rows.append(
            {
                "introductory_effort_fraction": (
                    point.parameters["introductory_effort_fraction"]
                ),
                "cost_ratio": assessment.cost_ratio,
                "coefficient_of_friction": assessment.coefficient_of_friction,
                "access_failure_probability": assessment.access_failure_probability,
                "adversary_effort": point.attacked.effort.adversary,
            }
        )
    return rows


# -- desynchronization ------------------------------------------------------------------


def desync_ablation_campaign(
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    vote_cost_as_fraction_of_interval: float = 0.025,
    name: str = "ablation-desync",
) -> Campaign:
    """Spread-out vs. compressed solicitation as one zip-axis campaign.

    A laptop-scale population cannot reproduce the paper's 600-AU load
    directly, so the heavy-load regime is emulated by scaling the per-vote
    compute cost: each vote costs ``vote_cost_as_fraction_of_interval`` of
    the inter-poll interval (the aggregate busyness a peer holding hundreds
    of AUs would experience).  Under that load, the desynchronized protocol
    (votes due only at evaluation time, most of an interval away) lets
    voters queue the work, while the compressed variant (all solicitation
    and voting squeezed into a few days) runs into scheduling refusals and
    inquorate polls — the effect Section 5.2 describes.
    """
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    # Emulate a heavily loaded peer: one vote costs a noticeable fraction of
    # the poll interval.
    vote_cost = base_protocol.poll_interval * vote_cost_as_fraction_of_interval
    loaded_sim = base_sim.with_overrides(hash_rate=base_sim.au_size / vote_cost)
    base = Scenario.from_configs(name, base_protocol, loaded_sim, seeds=tuple(seeds))
    campaign = Campaign(name=name, scenario=base, exporter="ablation_desync")
    campaign.add_axis(
        **{
            "params.mode": ["desynchronized", "synchronized"],
            "protocol.solicitation_fraction": [
                base_protocol.solicitation_fraction,
                0.05,
            ],
            "protocol.outer_circle_fraction": [
                base_protocol.outer_circle_fraction,
                0.04,
            ],
        }
    )
    return campaign


@row_exporter("ablation_desync")
def desync_ablation_export(results: ResultSet) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for point in results:
        averaged = point.attacked
        rows.append(
            {
                "mode": point.parameters["mode"],
                "successful_polls": averaged.polls.successful,
                "failed_polls": averaged.polls.failed,
                "success_rate": averaged.polls.success_rate,
                "refusal_rate": averaged.admission.refusal_rate,
                "mean_time_between_successful_polls_days": (
                    averaged.polls.mean_time_between_successful_polls / units.DAY
                ),
                "access_failure_probability": (
                    averaged.damage.access_failure_probability
                ),
            }
        )
    return rows
