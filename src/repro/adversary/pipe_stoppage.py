"""Pipe-stoppage (network-level DDoS) adversary.

This adversary models packet flooding or more sophisticated link-level
attacks: it suppresses *all* communication between a fraction of the loyal
population (its coverage) and the rest of the system.  Each attack lasts
between 1 and 180 days and is followed by a 30-day recuperation period during
which communication is restored; the cycle repeats for the whole experiment,
hitting a different random subset of the population each time (Section 7.2).

The attack is effortless: no protocol messages are sent and no effort is
charged to the adversary's account — which is why the paper reports no cost
ratio for it.  Local readers can still access content at the victims; only
peer-to-peer communication is cut.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..sim.engine import Simulator
from ..sim.network import Network
from .base import Adversary, AttackSchedule


class PipeStoppageAdversary(Adversary):
    """Repeatedly blacks out a random fraction of the loyal population."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        rng: random.Random,
        schedule: AttackSchedule,
        victims_pool: Sequence[str],
        end_time: float,
        node_id: str = "pipe-stoppage-adversary",
    ) -> None:
        super().__init__(node_id, simulator, network, rng)
        self.schedule = schedule
        self.victims_pool = list(victims_pool)
        self.end_time = end_time
        self.current_victims: List[str] = []
        self.cycles_started = 0
        self.total_blackout_peer_seconds = 0.0

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> None:
        """Begin the first attack cycle immediately."""
        self.simulator.schedule(0.0, self._begin_cycle)

    # -- attack cycles --------------------------------------------------------------------

    def _begin_cycle(self) -> None:
        if self.simulator.now >= self.end_time:
            self._release_victims()
            return
        self.cycles_started += 1
        self.current_victims = self.schedule.pick_victims(self.rng, self.victims_pool)
        for victim in self.current_victims:
            self.network.block(victim)
        stoppage = min(self.schedule.attack_duration, self.end_time - self.simulator.now)
        self.total_blackout_peer_seconds += stoppage * len(self.current_victims)
        self.simulator.schedule(stoppage, self._end_cycle)

    def _end_cycle(self) -> None:
        self._release_victims()
        if self.simulator.now >= self.end_time:
            return
        self.simulator.schedule(self.schedule.recuperation, self._begin_cycle)

    def _release_victims(self) -> None:
        for victim in self.current_victims:
            self.network.unblock(victim)
        self.current_victims = []
