"""The ``"attack_sweep"`` row exporter: Figures 3–8 as rows.

Both scheduled attack families of the paper (pipe stoppage, Figures 3–5;
admission flood, Figures 6–8) share one experimental shape: sweep the attack
duration and the population coverage (the campaign axes
``adversary.coverage`` outer, ``adversary.attack_duration_days`` inner, over
a ``"pipe_stoppage"`` or ``"admission_flood"`` adversary), then report the
paper's three metrics per point.  The bench artifacts ``fig3_pipe_stoppage``
… ``fig8_admission_friction`` and the ``laptop_fig3_5_pipe_stoppage.json`` /
``laptop_fig6_8_admission_flood.json`` campaign files are that shape.

Shape to reproduce.  Pipe stoppage: all three metrics grow with coverage
and duration; attacks must last on the order of 60+ days at high coverage
before the delay ratio rises by an order of magnitude, and even a
100%-coverage 180-day attack leaves the access failure probability in the
low 10^-3 range.  Admission flood: the attack barely moves the access
failure probability or the delay ratio even when sustained for the entire
experiment at full coverage; its visible effect is a modest rise (tens of
percent) in the coefficient of friction, caused by loyal pollers wasting
introductory effort on invitations that land in refractory periods.
"""

from __future__ import annotations

from typing import Dict, List

from ..api.resultset import ResultSet, row_exporter


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
