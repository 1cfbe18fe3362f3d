"""Table 1 — brute-force effortful adversary with varying defection points.

The brute-force adversary pays valid introductory effort from in-debt
identities to get past admission control, then defects at one of three
points: INTRO (never sends the PollProof), REMAINING (sends the PollProof,
receives the expensive vote, never sends a receipt), or NONE (participates
fully).  Table 1 reports, for 50-AU and 600-AU collections, the coefficient
of friction, the cost ratio, the delay ratio, and the access failure
probability for each strategy.

Each (defection, collection size) cell is a :class:`~repro.api.Scenario`
with adversary kind ``"brute_force"``, its ``defection`` one of ``"intro"``,
``"remaining"``, ``"none"`` (the ``table1_effortful`` artifact,
``laptop_table1.json``); this module holds the ``"table1"`` row exporter.

Shape to reproduce: full participation (NONE) is the adversary's most
cost-effective strategy (lowest cost ratio, close to 1); the coefficient of
friction saturates around a small constant factor (≈2.5 in the paper);
the delay ratio stays close to 1; and the access failure probability stays
within a small factor of the no-attack baseline for every strategy — the rate
limits prevent the adversary from bringing its unlimited resources to bear.
"""

from __future__ import annotations

from typing import Dict, List

from ..api.resultset import ResultSet, row_exporter


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
