"""Generic duration x coverage attack campaigns over registry adversaries.

Both scheduled attack families of the paper (pipe stoppage, Figures 3–5;
admission flood, Figures 6–8) share one experimental shape: sweep the attack
duration and the population coverage, then report the paper's three metrics
per point.  This module expresses that shape once, as a declarative
:class:`~repro.api.campaign.Campaign` (coverage axis outermost, duration axis
innermost) plus the ``"attack_sweep"`` row exporter, so the per-figure
modules are thin labels over the same machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import AdversarySpec, Campaign, Scenario
from ..api.resultset import ResultSet, row_exporter
from ..config import ProtocolConfig, SimulationConfig
from .configs import resolve_base_configs


def attack_sweep_campaign(
    kind: str,
    durations_days: Sequence[float],
    coverages: Sequence[float],
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    recuperation_days: float = 30.0,
    name: Optional[str] = None,
    **extra_params: object,
) -> Campaign:
    """The duration x coverage grid as a campaign with the figure exporter.

    One declarative sweep over (coverage outer, duration inner).
    ``extra_params`` are forwarded into the adversary spec (e.g. the
    admission flood's ``invitations_per_victim_per_day``).
    """
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    params: Dict[str, object] = {"recuperation_days": recuperation_days}
    params.update(extra_params)
    scenario = Scenario.from_configs(
        name or kind,
        base_protocol,
        base_sim,
        adversary=AdversarySpec(kind, params),
        seeds=tuple(seeds),
    )
    scenario.sweep = {
        "adversary.coverage": list(coverages),
        "adversary.attack_duration_days": list(durations_days),
    }
    return Campaign.from_sweep(scenario, name=name or kind, exporter="attack_sweep")


@row_exporter("attack_sweep")
def attack_sweep_export(results: ResultSet) -> List[Dict[str, object]]:
    """One Figures 3–8 row per point, built from the typed observations."""
    rows: List[Dict[str, object]] = []
    for point in results:
        _, sim = point.scenario.resolve()
        inflation = max(sim.storage_damage_inflation, 1e-9)
        assessment = point.assessment
        rows.append(
            {
                "attack_duration_days": point.parameters.get("attack_duration_days"),
                "coverage": point.parameters.get("coverage"),
                "access_failure_probability": assessment.access_failure_probability,
                "baseline_access_failure_probability": (
                    point.baseline.damage.access_failure_probability
                ),
                "delay_ratio": assessment.delay_ratio,
                "coefficient_of_friction": assessment.coefficient_of_friction,
                "successful_polls": point.attacked.polls.successful,
                "failed_polls": point.attacked.polls.failed,
                "normalized_access_failure_probability": (
                    assessment.access_failure_probability / inflation
                ),
            }
        )
    return rows


#: Display columns of the Figures 3-5 and 6-8 series tables.
FIGURE_COLUMNS = (
    "attack_duration_days",
    "coverage",
    "access_failure_probability",
    "delay_ratio",
    "coefficient_of_friction",
)
