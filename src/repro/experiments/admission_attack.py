"""Figures 6–8 — admission-control (garbage invitation flood) attacks.

The admission-control adversary floods victims with cheap garbage invitations
from unknown identities, keeping them in their refractory periods so that
invitations from unknown or in-debt *loyal* peers are dropped too.  Figures
6, 7, and 8 plot, against the attack duration (1–720 days at 10–100%
coverage), the access failure probability, the delay ratio, and the
coefficient of friction.

The sweep is one declarative :class:`~repro.api.Scenario` (adversary kind
``"admission_flood"``, sweep axes over coverage and duration) executed
through the shared :class:`~repro.api.Session`; see
:mod:`repro.experiments.attacks`.

Shape to reproduce: the attack barely moves the access failure probability or
the delay ratio even when sustained for the entire experiment at full
coverage; its visible effect is a modest rise (tens of percent) in the
coefficient of friction, caused by loyal pollers wasting introductory effort
on invitations that land in refractory periods and must be retried.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Campaign, Scenario, Session
from ..config import ProtocolConfig, SimulationConfig
from .attacks import attack_sweep_campaign, attack_sweep_rows, attack_sweep_scenario
from .reporting import format_table


def admission_flood_scenario(
    durations_days: Sequence[float] = (10.0, 90.0, 270.0),
    coverages: Sequence[float] = (0.4, 1.0),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    recuperation_days: float = 30.0,
    invitations_per_victim_per_day: float = 4.0,
) -> Scenario:
    """The Figures 6–8 sweep as one declarative scenario."""
    return attack_sweep_scenario(
        "admission_flood",
        durations_days=durations_days,
        coverages=coverages,
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        recuperation_days=recuperation_days,
        name="admission-flood",
        invitations_per_victim_per_day=invitations_per_victim_per_day,
    )


def admission_flood_campaign(
    durations_days: Sequence[float] = (10.0, 90.0, 270.0),
    coverages: Sequence[float] = (0.4, 1.0),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    recuperation_days: float = 30.0,
    invitations_per_victim_per_day: float = 4.0,
    name: str = "admission-flood",
) -> Campaign:
    """The Figures 6–8 duration x coverage grid as a campaign."""
    return attack_sweep_campaign(
        "admission_flood",
        durations_days=durations_days,
        coverages=coverages,
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        recuperation_days=recuperation_days,
        name=name,
        invitations_per_victim_per_day=invitations_per_victim_per_day,
    )


def admission_attack_sweep(
    durations_days: Sequence[float] = (10.0, 90.0, 270.0),
    coverages: Sequence[float] = (0.4, 1.0),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    recuperation_days: float = 30.0,
    invitations_per_victim_per_day: float = 4.0,
    session: Optional[Session] = None,
) -> List[Dict[str, object]]:
    """Sweep attack duration x coverage for the garbage-invitation flood."""
    scenario = admission_flood_scenario(
        durations_days=durations_days,
        coverages=coverages,
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        recuperation_days=recuperation_days,
        invitations_per_victim_per_day=invitations_per_victim_per_day,
    )
    return attack_sweep_rows(scenario, session=session)


def paper_scale_parameters() -> Dict[str, object]:
    """The full Figures 6-8 parameter grid as reported by the paper."""
    return {
        "durations_days": (1, 5, 10, 30, 90, 180, 720),
        "coverages": (0.10, 0.40, 0.70, 1.00),
        "recuperation_days": 30,
        "collection_sizes": (50, 600),
        "n_peers": 100,
        "duration_years": 2,
        "runs_per_point": 3,
    }


FIGURE_COLUMNS = (
    "attack_duration_days",
    "coverage",
    "access_failure_probability",
    "delay_ratio",
    "coefficient_of_friction",
)


def format_figures(rows: Sequence[Dict[str, object]]) -> str:
    """Render sweep rows as the Figures 6-8 series table."""
    return format_table(
        FIGURE_COLUMNS,
        [[row.get(column) for column in FIGURE_COLUMNS] for row in rows],
    )
