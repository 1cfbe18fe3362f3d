"""Shared adversary machinery.

All adversaries are modeled conservatively, following Section 6.2: the
adversary is a cluster of nodes with as many network identities and as much
compute power as it needs, complete and instantaneous knowledge of its own
state, and a magically incorruptible copy of every AU.  It sits *outside* the
loyal population: loyal peers never invite adversary identities into their
polls, and the adversary only ever asks loyal peers for service — so every
unit of effort charged to its account is pure attack cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from .. import units
from ..crypto.effort import EffortAccount, EffortScheme, charge_account
from ..sim.engine import Simulator
from ..sim.network import LinkProperties, Message, Network, Node


@dataclass
class AttackSchedule:
    """Repeated attack / recuperation cycles with per-cycle random targeting.

    Each cycle lasts ``attack_duration`` followed by ``recuperation`` (the
    paper fixes recuperation at 30 days); a fresh random subset of the loyal
    population of size ``coverage * len(population)`` is targeted in each
    cycle.

    .. note::
       The composable strategy API factors this class into two components:
       the timing half is :class:`repro.adversary.schedule.OnOffSchedule`,
       the targeting half :class:`repro.adversary.targeting.RandomSubsetTargeting`.
       ``AttackSchedule`` remains the legacy single-object spelling used by
       the monolithic reference adversaries.
    """

    attack_duration: float
    coverage: float
    recuperation: float = 30 * units.DAY

    def __post_init__(self) -> None:
        if self.attack_duration <= 0:
            raise ValueError("attack_duration must be positive")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.recuperation < 0:
            raise ValueError("recuperation must be non-negative")

    @property
    def cycle_length(self) -> float:
        return self.attack_duration + self.recuperation

    def pick_victims(self, rng: random.Random, population: Sequence[str]) -> List[str]:
        """Choose this cycle's victims.

        Pinned behaviour (the one implementation lives in
        :func:`repro.adversary.targeting.victim_count`, covered by tests):
        an active attack always targets **at least one** victim, even when
        ``coverage * len(population)`` rounds to zero — e.g.
        ``coverage=0.04`` against 10 peers targets 1 peer, not 0.  The
        paper's adversary never mounts an attack cycle against nobody; a
        coverage of exactly zero is rejected at construction instead.
        """
        from .targeting import victim_count

        count = victim_count(self.coverage, len(population))
        return rng.sample(list(population), count)


class Adversary(Node):
    """Base class for all adversaries.

    Subclasses implement :meth:`start` (begin the attack) and may override
    :meth:`receive_message` if their strategy reacts to victim responses.
    """

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        network: Network,
        rng: random.Random,
        effort_scheme: Optional[EffortScheme] = None,
    ) -> None:
        super().__init__(node_id)
        self.simulator = simulator
        self.network = network
        self.rng = rng
        self.effort_scheme = effort_scheme if effort_scheme is not None else EffortScheme()
        self.effort = EffortAccount()
        self.identities: List[str] = []
        #: Replay tap (see :mod:`repro.replay`); attached by the record-mode
        #: wiring, never consulted on the adversary's own hot paths.
        self.tracer = None
        # The adversary cluster is generously provisioned: a fast link so
        # that its own connectivity never limits the attack.
        self._link = LinkProperties(bandwidth_bps=units.mbps(1000), latency=0.002)
        network.register(self, link=self._link)

    # -- identities --------------------------------------------------------------------

    def create_identities(self, count: int, prefix: str = "minion") -> List[str]:
        """Register ``count`` fresh network identities answered by this node."""
        created = []
        start = len(self.identities)
        for index in range(start, start + count):
            identity = "%s-%s-%05d" % (self.node_id, prefix, index)
            self.network.register_identity(identity, self, link=self._link)
            self.identities.append(identity)
            created.append(identity)
        return created

    def pick_identity(self) -> str:
        """A random identity from the adversary's pool."""
        if not self.identities:
            raise RuntimeError("adversary has no identities; call create_identities first")
        return self.rng.choice(self.identities)

    # -- effort accounting --------------------------------------------------------------

    def charge(self, category: str, amount: float) -> None:
        charge_account(self.effort, category, amount)

    # -- lifecycle ------------------------------------------------------------------------

    def install(self, peers: Sequence) -> None:
        """Hook for strategy-specific setup against the loyal population."""

    def start(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def receive_message(self, message: Message) -> None:
        """Default: ignore all traffic (effortless attackers never listen)."""
