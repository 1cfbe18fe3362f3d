"""Figures 3–5 — pipe-stoppage (network-level) attacks.

The pipe-stoppage adversary suppresses all communication for a fraction of
the peer population (its coverage, 10–100%) for 1–180 days, recuperates for
30 days, and repeats with a fresh random victim set.  Figures 3, 4, and 5
plot, against the attack duration, the access failure probability, the delay
ratio, and the coefficient of friction respectively — the same simulation
runs viewed through three metrics, so one sweep regenerates all three.

The sweep is one declarative :class:`~repro.api.Campaign` (adversary kind
``"pipe_stoppage"``, grid axes over coverage and duration); see
:mod:`repro.experiments.attacks`.

Shape to reproduce: all three metrics grow with coverage and duration;
attacks must last on the order of 60+ days at high coverage before the delay
ratio rises by an order of magnitude, and even a 100%-coverage 180-day attack
leaves the access failure probability in the low 10^-3 range.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api import Campaign
from ..config import ProtocolConfig, SimulationConfig
from .attacks import attack_sweep_campaign


def pipe_stoppage_campaign(
    durations_days: Sequence[float] = (5.0, 30.0, 90.0),
    coverages: Sequence[float] = (0.4, 1.0),
    seeds: Sequence[int] = (1,),
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
    recuperation_days: float = 30.0,
    name: str = "pipe-stoppage",
) -> Campaign:
    """The Figures 3–5 duration x coverage grid as a campaign."""
    return attack_sweep_campaign(
        "pipe_stoppage",
        durations_days=durations_days,
        coverages=coverages,
        seeds=seeds,
        protocol_config=protocol_config,
        sim_config=sim_config,
        recuperation_days=recuperation_days,
        name=name,
    )
