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

from typing import Optional, Sequence

from ..api import Campaign
from ..config import ProtocolConfig, SimulationConfig
from .attacks import attack_sweep_campaign


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
