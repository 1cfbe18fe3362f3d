"""Figure 2 — baseline access failure probability, no attack.

The paper's Figure 2 plots the mean access failure probability against the
inter-poll interval (2–12 months) for mean times between storage failures of
1 to 5 disk-years, for 50-AU and 600-AU collections.  The shape to reproduce:
the access failure probability grows with the inter-poll interval (damage
takes longer to detect and repair) and with the storage failure rate, and the
large collection tracks the small one closely.

Each grid point is a no-adversary :class:`~repro.api.Scenario` executed
through the shared :class:`~repro.api.Session`.  The default sweep is
laptop-scale (small population and collection, shorter horizon); pass
explicit configurations for larger studies.  Absolute values depend on the
ratio of poll interval to storage MTBF exactly as in the paper, so the
expected magnitude (≈5e-4 at a 3-month interval and 5-year MTBF) is
preserved even at reduced scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import units
from ..api import Campaign, Scenario
from ..api.resultset import ResultSet, row_exporter
from ..config import ProtocolConfig, SimulationConfig
from .configs import resolve_base_configs


def baseline_campaign(
    poll_intervals_months: Sequence[float] = (2.0, 3.0, 6.0, 12.0),
    storage_mtbf_years: Sequence[float] = (1.0, 5.0),
    collection_sizes: Sequence[int] = (2,),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    name: str = "figure2-baseline",
) -> Campaign:
    """The Figure 2 grid (collection x MTBF x poll interval) as a campaign.

    The poll-interval axis is a zip axis: the ``protocol.poll_interval``
    override (seconds) advances in lockstep with the human-readable
    ``params.poll_interval_months`` row label.  Likewise the MTBF axis pins
    the paper's ``storage_mtbf_years`` label to the
    ``sim.storage_mtbf_disk_years`` config field.
    """
    base_protocol, base_sim = resolve_base_configs(protocol_config, sim_config)
    base = Scenario.from_configs(name, base_protocol, base_sim, seeds=tuple(seeds))
    campaign = Campaign(name=name, scenario=base, exporter="figure2")
    campaign.add_axis(**{"sim.n_aus": list(collection_sizes)})
    campaign.add_axis(
        **{
            "sim.storage_mtbf_disk_years": list(storage_mtbf_years),
            "params.storage_mtbf_years": list(storage_mtbf_years),
        }
    )
    campaign.add_axis(
        **{
            "protocol.poll_interval": [
                units.months(interval) for interval in poll_intervals_months
            ],
            "params.poll_interval_months": list(poll_intervals_months),
        }
    )
    return campaign


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
