"""Figure 2 — baseline access failure probability, no attack.

The paper's Figure 2 plots the mean access failure probability against the
inter-poll interval (2–12 months) for mean times between storage failures of
1 to 5 disk-years, for 50-AU and 600-AU collections.  The shape to reproduce:
the access failure probability grows with the inter-poll interval (damage
takes longer to detect and repair) and with the storage failure rate, and the
large collection tracks the small one closely.

Each grid point is a no-adversary :class:`~repro.api.Scenario`; the
campaign zips the ``protocol.poll_interval`` override (seconds) with the
``params.poll_interval_months`` row label, and the
``sim.storage_mtbf_disk_years`` field with the ``params.storage_mtbf_years``
label (the ``fig2_baseline`` artifact, ``laptop_fig2_baseline.json``).  This
module holds its ``"figure2"`` row exporter.  Absolute values depend on the
ratio of poll interval to storage MTBF exactly as in the paper, so the
expected magnitude (≈5e-4 at a 3-month interval and 5-year MTBF) is
preserved even at reduced scale.
"""

from __future__ import annotations

from typing import Dict, List

from .. import units
from ..api.resultset import ResultSet, row_exporter


@row_exporter("figure2")
def figure2_export(results: ResultSet) -> List[Dict[str, object]]:
    """One Figure 2 row per grid point, built from the typed observations."""
    rows: List[Dict[str, object]] = []
    for point in results:
        _, sim = point.scenario.resolve()
        inflation = max(sim.storage_damage_inflation, 1e-9)
        averaged = point.attacked
        rows.append(
            {
                "poll_interval_months": point.parameters["poll_interval_months"],
                "storage_mtbf_years": point.parameters["storage_mtbf_years"],
                "n_aus": point.parameters["n_aus"],
                "access_failure_probability": (
                    averaged.damage.access_failure_probability
                ),
                "normalized_access_failure_probability": (
                    averaged.damage.access_failure_probability / inflation
                ),
                "successful_polls": averaged.polls.successful,
                "failed_polls": averaged.polls.failed,
                "mean_time_between_successful_polls_days": (
                    averaged.polls.mean_time_between_successful_polls / units.DAY
                ),
                "effort_per_successful_poll": averaged.effort.per_successful_poll,
            }
        )
    return rows


FIGURE2_COLUMNS = (
    "poll_interval_months",
    "storage_mtbf_years",
    "n_aus",
    "access_failure_probability",
    "successful_polls",
    "failed_polls",
)
