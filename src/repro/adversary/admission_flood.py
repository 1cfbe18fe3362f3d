"""Admission-control (garbage invitation flood) adversary.

This adversary aims to reduce the likelihood of a victim admitting a loyal
poll request by triggering the victim's refractory period as often as
possible (Section 7.3).  It sends cheap garbage poll invitations — carrying
forged introductory effort that costs the attacker nothing — from poller
addresses unknown to the victims.  When one such invitation is eventually
admitted, the victim wastes a verification on the bogus effort, penalizes the
(disposable) identity, and enters its refractory period, during which all
invitations from unknown and in-debt peers (including loyal ones) are
dropped.

Attacks of a given duration and population coverage alternate with 30-day
recuperation periods, targeting a new random subset of the population in each
cycle, exactly like the pipe-stoppage schedule.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .. import units
from ..core.messages import Poll
from ..sim.engine import EventHandle, Simulator
from ..sim.network import Network
from .base import Adversary, AttackSchedule


class AdmissionControlAdversary(Adversary):
    """Floods victims with effortless garbage invitations."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        rng: random.Random,
        schedule: AttackSchedule,
        victims_pool: Sequence[str],
        au_ids: Sequence[str],
        end_time: float,
        invitations_per_victim_per_day: float = 4.0,
        identity_pool_size: int = 400,
        node_id: str = "admission-flood-adversary",
    ) -> None:
        super().__init__(node_id, simulator, network, rng)
        if invitations_per_victim_per_day <= 0:
            raise ValueError("invitations_per_victim_per_day must be positive")
        self.schedule = schedule
        self.victims_pool = list(victims_pool)
        self.au_ids = list(au_ids)
        self.end_time = end_time
        self.invitations_per_victim_per_day = invitations_per_victim_per_day
        self.create_identities(identity_pool_size, prefix="unknown")
        self.current_victims: List[str] = []
        self.cycles_started = 0
        self.invitations_sent = 0
        self._flood_handles: List[EventHandle] = []
        self._poll_counter = 0
        # One forged proof serves the whole flood: garbage is garbage, the
        # victims only ever check ``valid`` and ``claimed_cost``, and minting
        # a fresh SHA-1 byproduct per invitation was a top-five hot spot in
        # the admission-attack profiles.
        self._garbage_proof = self.effort_scheme.forge(node_id, claimed_cost=1.0)

    # -- lifecycle ------------------------------------------------------------------------

    def start(self) -> None:
        self.simulator.schedule(0.0, self._begin_cycle)

    # -- attack cycles --------------------------------------------------------------------

    def _begin_cycle(self) -> None:
        if self.simulator.now >= self.end_time:
            return
        self.cycles_started += 1
        self.current_victims = self.schedule.pick_victims(self.rng, self.victims_pool)
        cycle_end = min(
            self.simulator.now + self.schedule.attack_duration, self.end_time
        )
        interval = units.DAY / self.invitations_per_victim_per_day
        for victim in self.current_victims:
            # Per-victim streams start at random phases so the flood is not
            # synchronized across victims.
            first = self.simulator.now + self.rng.uniform(0.0, interval)
            handle = self.simulator.call_every(
                interval, self._flood_victim, victim, start=first, end=cycle_end
            )
            self._flood_handles.append(handle)
        self.simulator.schedule_at(cycle_end, self._end_cycle)

    def _end_cycle(self) -> None:
        self._stop_flood()
        if self.simulator.now >= self.end_time:
            return
        self.simulator.schedule(self.schedule.recuperation, self._begin_cycle)

    def _stop_flood(self) -> None:
        for handle in self._flood_handles:
            handle.cancel()
        self._flood_handles = []
        self.current_victims = []

    # -- the flood itself ----------------------------------------------------------------------

    def _flood_victim(self, victim: str) -> None:
        """Send one garbage invitation (per preserved AU) to ``victim``."""
        choice = self.rng.choice
        identities = self.identities
        deadline = self.simulator._now + 7 * units.DAY
        send = self.network.send
        garbage_proof = self._garbage_proof
        counter = self._poll_counter
        for au_id in self.au_ids:
            identity = choice(identities)
            counter += 1
            invitation = Poll(
                poll_id="%s/garbage/%d" % (identity, counter),
                au_id=au_id,
                poller_id=identity,
                vote_deadline=deadline,
                introductory_effort=garbage_proof,
            )
            # Garbage invitations are effortless: the forged proof costs the
            # adversary nothing; only negligible send bookkeeping is charged.
            send(identity, victim, invitation, size_bytes=1280)
        self._poll_counter = counter
        self.invitations_sent += len(self.au_ids)
