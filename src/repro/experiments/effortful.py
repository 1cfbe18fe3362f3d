"""Table 1 — brute-force effortful adversary with varying defection points.

The brute-force adversary pays valid introductory effort from in-debt
identities to get past admission control, then defects at one of three
points: INTRO (never sends the PollProof), REMAINING (sends the PollProof,
receives the expensive vote, never sends a receipt), or NONE (participates
fully).  Table 1 reports, for 50-AU and 600-AU collections, the coefficient
of friction, the cost ratio, the delay ratio, and the access failure
probability for each strategy.

Each (defection, collection size) cell is a :class:`~repro.api.Scenario`
with adversary kind ``"brute_force"`` executed through the shared
:class:`~repro.api.Session`.

Shape to reproduce: full participation (NONE) is the adversary's most
cost-effective strategy (lowest cost ratio, close to 1); the coefficient of
friction saturates around a small constant factor (≈2.5 in the paper);
the delay ratio stays close to 1; and the access failure probability stays
within a small factor of the no-attack baseline for every strategy — the rate
limits prevent the adversary from bringing its unlimited resources to bear.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..adversary.brute_force import DefectionPoint
from ..api import AdversarySpec, Campaign, Scenario
from ..api.resultset import ResultSet, row_exporter
from ..config import ProtocolConfig, SimulationConfig
from .configs import resolve_base_configs


def effortful_campaign(
    defections: Sequence[DefectionPoint] = (
        DefectionPoint.INTRO,
        DefectionPoint.REMAINING,
        DefectionPoint.NONE,
    ),
    collection_sizes: Sequence[int] = (2,),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    attempts_per_victim_au_per_day: float = 5.0,
    name: str = "table1-effortful",
) -> Campaign:
    """Table 1 (defection outer, collection size inner) as a campaign."""
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    defection_values = [
        d.value if isinstance(d, DefectionPoint) else str(d) for d in defections
    ]
    base = Scenario.from_configs(
        name,
        base_protocol,
        base_sim,
        adversary=AdversarySpec(
            "brute_force",
            {
                "defection": defection_values[0] if defection_values else "none",
                "attempts_per_victim_au_per_day": attempts_per_victim_au_per_day,
            },
        ),
        seeds=tuple(seeds),
    )
    campaign = Campaign(name=name, scenario=base, exporter="table1")
    campaign.add_axis(**{"adversary.defection": defection_values})
    campaign.add_axis(**{"sim.n_aus": list(collection_sizes)})
    return campaign


@row_exporter("table1")
def table1_export(results: ResultSet) -> List[Dict[str, object]]:
    """One Table 1 row per point, built from the typed observations."""
    rows: List[Dict[str, object]] = []
    for point in results:
        _, sim = point.scenario.resolve()
        inflation = max(sim.storage_damage_inflation, 1e-9)
        assessment = point.assessment
        rows.append(
            {
                "defection": point.parameters["defection"],
                "n_aus": point.parameters["n_aus"],
                "coefficient_of_friction": assessment.coefficient_of_friction,
                "cost_ratio": assessment.cost_ratio,
                "delay_ratio": assessment.delay_ratio,
                "access_failure_probability": assessment.access_failure_probability,
                "baseline_access_failure_probability": (
                    point.baseline.damage.access_failure_probability
                ),
                "adversary_effort": point.attacked.effort.adversary,
                "loyal_effort": point.attacked.effort.loyal,
                "normalized_access_failure_probability": (
                    assessment.access_failure_probability / inflation
                ),
            }
        )
    return rows


TABLE1_COLUMNS = (
    "defection",
    "n_aus",
    "coefficient_of_friction",
    "cost_ratio",
    "delay_ratio",
    "access_failure_probability",
)
