"""Unified Scenario API.

This package is the one way to describe and run any experiment in the
reproduction:

* :class:`~repro.api.scenario.Scenario` — a declarative, JSON-round-trippable
  description of one experiment (base config + overrides, adversary spec,
  sweep axes, seeds) with a stable content digest.
* :class:`~repro.api.registry.AdversaryRegistry` / :func:`~repro.api.registry.adversary`
  — string-keyed attack strategies (``"pipe_stoppage"``, ``"admission_flood"``,
  ``"brute_force"``, plus user-defined ones).
* :class:`~repro.api.session.Session` — executes scenarios and sweeps, in
  parallel on a process pool when ``workers > 1``, with deterministic,
  bit-identical-to-serial results.
* :class:`~repro.api.store.ResultStore` — digest-keyed JSON artifacts
  persisting per-seed runs and full experiment results across processes.
* :class:`~repro.api.campaign.Campaign` / :class:`~repro.api.campaign.CampaignRunner`
  — declarative parameter grids (with zip axes) over a base scenario,
  executed resumably: completed points are checkpointed by digest and a
  killed campaign picks up exactly where it stopped.
* :class:`~repro.api.resultset.ResultSet` / :mod:`repro.api.observations` —
  the queryable read path: typed per-run observation streams plus
  filter/group/aggregate/export over a campaign's points.

Quickstart::

    from repro.api import AdversarySpec, Campaign, CampaignRunner, Scenario

    base = Scenario(
        name="pipe stoppage",
        base="smoke",
        adversary=AdversarySpec("pipe_stoppage", {}),
        seeds=(1, 2, 3),
    )
    campaign = Campaign.from_grid(
        "stoppage-grid",
        base,
        {"adversary.coverage": [0.4, 1.0],
         "adversary.attack_duration_days": [30.0, 90.0]},
    )
    results = CampaignRunner(workers=3).run(campaign)
    print(results.rows("coverage", "attack_duration_days", "assessment.delay_ratio"))
"""

from .campaign import Campaign, CampaignRunner, campaign_rows
from .observations import observe
from .registry import DEFAULT_REGISTRY, AdversaryRegistry, adversary
from .resultset import ResultSet, export_rows, row_exporter
from .scenario import AdversarySpec, Scenario, canonical_json, config_digest
from .session import PointExecutionError, Session
from .store import ResultStore

__all__ = [
    "AdversaryRegistry",
    "AdversarySpec",
    "Campaign",
    "CampaignRunner",
    "DEFAULT_REGISTRY",
    "PointExecutionError",
    "ResultSet",
    "ResultStore",
    "Scenario",
    "Session",
    "adversary",
    "campaign_rows",
    "canonical_json",
    "config_digest",
    "export_rows",
    "observe",
    "row_exporter",
]
