"""Ablations of individual attrition defenses.

The paper argues for a *combination* of defenses; these ablations quantify
what each one buys by re-running an attack with a single defense weakened or
disabled.  Every ablation is a declarative
:class:`~repro.api.campaign.Campaign` — the weakened defense is just a
protocol-config axis over the base scenario (the ``ablation_*`` artifacts,
``laptop_ablation_*.json``); this module holds their row exporters:

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
  A laptop-scale population cannot reproduce the paper's 600-AU load, so
  the campaign emulates it by scaling the per-vote compute cost
  (``sim.hash_rate``): each vote costs 2.5% of the inter-poll interval.
"""

from __future__ import annotations

from typing import Dict, List

from .. import units
from ..api.resultset import ResultSet, row_exporter


# -- admission control ------------------------------------------------------------------


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
