"""Attack vectors: what a composed adversary actually does to its victims.

Each :class:`AttackVector` is the reusable core of one attack mechanism from
the paper's taxonomy — pipe stoppage (network-level flooding, Section 7.2),
admission flood (protocol-level garbage invitations, Section 7.3), brute
force polling (effortful solicitation with a defection point, Section 7.4),
and effort attrition (the reservation flood specialization).  A
:class:`~repro.adversary.composed.ComposedAdversary` engages any subset of
vectors per schedule window, against the victims its targeting policy chose.

Determinism contract: a vector draws randomness only from the RNG lane it is
bound to, iterates victims in the order it is handed them, and schedules
events in a fixed order per engagement.  The built-in single-vector
compositions therefore replay the exact event and RNG sequence of the legacy
monolithic adversaries (same node ids, identity names, poll-id formats, and
message sizes), which is verified digest-for-digest by the test suite and
the committed bench baseline.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .. import units
from ..core.effort_policy import EffortPolicy
from ..core.messages import (
    EvaluationReceipt,
    Poll,
    PollAck,
    PollProof,
    Vote,
    message_size,
)
from ..core.reputation import Grade
from ..crypto.hashing import make_nonce
from .brute_force import DefectionPoint, _Exchange
from .components import VECTOR_REGISTRY, StrategyComponent


class AttackVector(StrategyComponent):
    """Base class for attack vectors hosted by a composed adversary."""

    def __init__(self) -> None:
        self.adversary = None  # type: ignore[assignment]
        self.rng: Optional[random.Random] = None

    # -- lifecycle ----------------------------------------------------------------------

    def bind(self, adversary, rng: random.Random) -> None:
        """Attach the vector to its host adversary and RNG lane."""
        self.adversary = adversary
        self.rng = rng
        self.prepare()

    def prepare(self) -> None:
        """One-time setup at bind time (identity pools, forged proofs, ...)."""

    def install(self, peers: Sequence) -> None:
        """Hook run against the loyal population before the world starts."""

    def engage(self, victims: Sequence[str], window_end: float, intensity: float) -> None:
        """Begin attacking ``victims`` until ``window_end``."""
        raise NotImplementedError

    def disengage(self) -> None:
        """Stop the current engagement (cancel timers, undo blackouts)."""

    # -- feedback -----------------------------------------------------------------------

    def on_message(self, payload: object) -> bool:
        """React to one inbound payload; True if this vector consumed it."""
        return False

    def observed(self) -> Dict[str, float]:
        """The vector's own outcome counters (adaptive-policy telemetry)."""
        return {}


@VECTOR_REGISTRY.register("pipe_stoppage")
class PipeStoppageVector(AttackVector):
    """Black out all communication to and from the engaged victims.

    Effortless: no protocol messages, no effort charged; local readers still
    reach the victims' content, only peer-to-peer traffic is cut.
    """

    defaults: Dict[str, object] = {}

    def __init__(self) -> None:
        super().__init__()
        self.current_victims: List[str] = []
        self.windows_engaged = 0
        self.total_blackout_peer_seconds = 0.0

    def engage(self, victims, window_end, intensity) -> None:
        adversary = self.adversary
        self.windows_engaged += 1
        self.current_victims = list(victims)
        for victim in self.current_victims:
            adversary.network.block(victim)
        self.total_blackout_peer_seconds += (
            window_end - adversary.simulator.now
        ) * len(self.current_victims)

    def disengage(self) -> None:
        network = self.adversary.network
        for victim in self.current_victims:
            network.unblock(victim)
        self.current_victims = []

    def observed(self) -> Dict[str, float]:
        return {
            "windows_engaged": float(self.windows_engaged),
            "blackout_peer_seconds": self.total_blackout_peer_seconds,
        }


@VECTOR_REGISTRY.register("admission_flood")
class AdmissionFloodVector(AttackVector):
    """Flood victims with effortless garbage invitations (refractory trigger).

    One forged proof serves the whole flood; per-victim invitation streams
    start at random phases so the flood is not synchronized across victims.
    ``intensity`` scales the invitation rate.
    """

    defaults = {
        "invitations_per_victim_per_day": 4.0,
        "identity_pool_size": 400,
        "identity_prefix": "unknown",
    }

    def __init__(
        self,
        invitations_per_victim_per_day: float = 4.0,
        identity_pool_size: int = 400,
        identity_prefix: str = "unknown",
    ) -> None:
        super().__init__()
        if invitations_per_victim_per_day <= 0:
            raise ValueError("invitations_per_victim_per_day must be positive")
        if identity_pool_size <= 0:
            raise ValueError("identity_pool_size must be positive")
        self.invitations_per_victim_per_day = invitations_per_victim_per_day
        self.identity_pool_size = identity_pool_size
        self.identity_prefix = identity_prefix
        self.identities: List[str] = []
        self.invitations_sent = 0
        self._poll_counter = 0
        self._garbage_proof = None
        self._flood_handles: List[object] = []

    def prepare(self) -> None:
        self.identities = self.adversary.create_identities(
            self.identity_pool_size, prefix=self.identity_prefix
        )
        self._garbage_proof = self.adversary.effort_scheme.forge(
            self.adversary.node_id, claimed_cost=1.0
        )

    def engage(self, victims, window_end, intensity) -> None:
        adversary = self.adversary
        simulator = adversary.simulator
        interval = units.DAY / (self.invitations_per_victim_per_day * intensity)
        for victim in victims:
            first = simulator.now + self.rng.uniform(0.0, interval)
            handle = simulator.call_every(
                interval, self._flood_victim, victim, start=first, end=window_end
            )
            self._flood_handles.append(handle)

    def disengage(self) -> None:
        for handle in self._flood_handles:
            handle.cancel()
        self._flood_handles = []

    def _flood_victim(self, victim: str) -> None:
        """Send one garbage invitation (per preserved AU) to ``victim``."""
        adversary = self.adversary
        choice = self.rng.choice
        identities = self.identities
        deadline = adversary.simulator._now + 7 * units.DAY
        send = adversary.network.send
        garbage_proof = self._garbage_proof
        counter = self._poll_counter
        au_ids = adversary.au_ids
        for au_id in au_ids:
            identity = choice(identities)
            counter += 1
            # Positional (half the cost of keywords on this hot path):
            # poll_id, au_id, poller_id, vote_deadline, introductory_effort.
            invitation = Poll(
                "%s/garbage/%d" % (identity, counter), au_id, identity, deadline, garbage_proof
            )
            # Garbage invitations are effortless: the forged proof costs the
            # adversary nothing; only negligible send bookkeeping is charged.
            send(identity, victim, invitation, size_bytes=1280)
        self._poll_counter = counter
        self.invitations_sent += len(au_ids)

    def observed(self) -> Dict[str, float]:
        return {"invitations_sent": float(self.invitations_sent)}


@VECTOR_REGISTRY.register("brute_force_poll")
class BruteForcePollVector(AttackVector):
    """Pay real introductory effort to solicit votes, then defect.

    The effortful attack of Section 7.4: invitations carry valid
    introductory effort from identities pre-seeded in the debt grade at
    every victim; a schedule oracle (insider information) can skip attempts
    that would be refused for lack of schedule room.  ``defection`` picks
    where the exchange is abandoned: ``intro`` (reservation attack),
    ``remaining`` (wasteful attack), or ``none`` (emulate legitimacy).
    """

    defaults = {
        "defection": "none",
        "attempts_per_victim_au_per_day": 5.0,
        "identity_pool_size": 100,
        "use_schedule_oracle": True,
        "identity_prefix": "indebt",
    }

    def __init__(
        self,
        defection: object = "none",
        attempts_per_victim_au_per_day: float = 5.0,
        identity_pool_size: int = 100,
        use_schedule_oracle: bool = True,
        identity_prefix: str = "indebt",
    ) -> None:
        super().__init__()
        if attempts_per_victim_au_per_day <= 0:
            raise ValueError("attempts_per_victim_au_per_day must be positive")
        if identity_pool_size <= 0:
            raise ValueError("identity_pool_size must be positive")
        if not isinstance(defection, DefectionPoint):
            defection = DefectionPoint(str(defection).lower())
        self.defection = defection
        self.attempts_per_victim_au_per_day = attempts_per_victim_au_per_day
        self.identity_pool_size = identity_pool_size
        self.use_schedule_oracle = use_schedule_oracle
        self.identity_prefix = identity_prefix
        self.identities: List[str] = []
        self.invitations_sent = 0
        self.invitations_admitted = 0
        self.votes_received = 0
        self.oracle_skips = 0
        self._exchanges: Dict[str, _Exchange] = {}
        self._poll_counter = 0
        self._attempt_handles: List[object] = []
        self.effort_policy: Optional[EffortPolicy] = None

    def prepare(self) -> None:
        adversary = self.adversary
        self.identities = adversary.create_identities(
            self.identity_pool_size, prefix=self.identity_prefix
        )
        self.effort_policy = EffortPolicy(
            adversary.protocol_config, adversary.cost_model
        )

    def install(self, peers: Sequence) -> None:
        """Pre-seed every vector identity with a DEBT grade at every peer.

        The paper conservatively initializes all adversary addresses with a
        debt grade at all loyal peers, so the attack starts from its steady
        state rather than spending the first weeks getting known.
        """
        now = self.adversary.simulator.now
        for peer in peers:
            for au_id in peer.au_ids():
                known = peer.au_state(au_id).known_peers
                for identity in self.identities:
                    known.set_grade(identity, Grade.DEBT, now)

    def engage(self, victims, window_end, intensity) -> None:
        adversary = self.adversary
        simulator = adversary.simulator
        interval = units.DAY / (self.attempts_per_victim_au_per_day * intensity)
        for victim_id in victims:
            victim = adversary.victim_peer(victim_id)
            for au_id in victim.au_ids():
                first = simulator.now + self.rng.uniform(0.0, interval)
                handle = simulator.call_every(
                    interval,
                    self._attempt,
                    victim,
                    au_id,
                    start=first,
                    end=window_end,
                )
                self._attempt_handles.append(handle)

    def disengage(self) -> None:
        for handle in self._attempt_handles:
            handle.cancel()
        self._attempt_handles = []

    # -- attack loop ---------------------------------------------------------------------

    def _attempt(self, victim, au_id: str) -> None:
        """Send one ostensibly legitimate invitation to ``victim`` for ``au_id``."""
        adversary = self.adversary
        now = adversary.simulator._now
        if now >= adversary.end_time:
            return
        au = victim.au_state(au_id).au
        effort = self.effort_policy.solicitation(au)
        deadline = now + self._vote_deadline_offset()

        if self.use_schedule_oracle:
            # Insider information: skip attempts that would only be refused
            # for lack of schedule room, sparing the introductory effort.
            commitment = self.effort_policy.voter_commitment(au)
            if victim.schedule.find_slot(commitment, now, deadline) is None:
                self.oracle_skips += 1
                return

        identity = self.rng.choice(self.identities)
        self._poll_counter += 1
        poll_id = "%s/attack/%d" % (identity, self._poll_counter)
        self._exchanges[poll_id] = _Exchange(victim.peer_id, au_id, identity)

        # The introductory effort is real: the whole point of the effortful
        # attack is to pay the toll that admission control demands.
        adversary.charge("proof", effort.introductory)
        intro_proof = adversary.effort_scheme.generate(identity, effort.introductory)
        invitation = Poll(
            poll_id=poll_id,
            au_id=au_id,
            poller_id=identity,
            vote_deadline=deadline,
            introductory_effort=intro_proof,
        )
        adversary.network.send(
            identity, victim.peer_id, invitation, message_size(invitation)
        )
        self.invitations_sent += 1

    def _vote_deadline_offset(self) -> float:
        """How long the adversary gives victims to compute the solicited vote."""
        return 7 * units.DAY

    # -- reacting to victims --------------------------------------------------------------

    def on_message(self, payload: object) -> bool:
        if isinstance(payload, PollAck):
            if payload.poll_id in self._exchanges:
                self._on_poll_ack(payload)
                return True
        elif isinstance(payload, Vote):
            if payload.poll_id in self._exchanges:
                self._on_vote(payload)
                return True
        return False

    def _on_poll_ack(self, ack: PollAck) -> None:
        adversary = self.adversary
        exchange = self._exchanges.get(ack.poll_id)
        if exchange is None or not ack.accepted:
            return
        self.invitations_admitted += 1
        if self.defection is DefectionPoint.INTRO:
            # Defect immediately: the victim's reserved slot goes to waste.
            return
        victim_peer = adversary.victim_peer(exchange.victim)
        if victim_peer is None:
            return
        au = victim_peer.au_state(exchange.au_id).au
        effort = self.effort_policy.solicitation(au)
        adversary.charge("proof", effort.remaining)
        remaining_proof = adversary.effort_scheme.generate(
            exchange.identity, effort.remaining
        )
        exchange.remaining_byproduct = remaining_proof.byproduct
        proof_message = PollProof(
            poll_id=ack.poll_id,
            au_id=exchange.au_id,
            poller_id=exchange.identity,
            nonce=make_nonce(self.rng),
            remaining_effort=remaining_proof,
        )
        adversary.network.send(
            exchange.identity, exchange.victim, proof_message, message_size(proof_message)
        )

    def _on_vote(self, vote: Vote) -> None:
        adversary = self.adversary
        exchange = self._exchanges.get(vote.poll_id)
        if exchange is None:
            return
        self.votes_received += 1
        if self.defection is not DefectionPoint.NONE:
            # REMAINING defection: the expensive vote is discarded unevaluated
            # and no receipt is ever sent.
            return
        # Full participation: conclude the exchange with a valid receipt.  The
        # receipt is the unforgeable byproduct of effort the adversary already
        # performed for the PollProof, and the conservative adversary model
        # (total information awareness, incorruptible AU copies) means its own
        # "evaluation" of the vote costs it nothing beyond bookkeeping.
        receipt = EvaluationReceipt(
            poll_id=vote.poll_id,
            au_id=exchange.au_id,
            poller_id=exchange.identity,
            receipt=exchange.remaining_byproduct or b"",
        )
        adversary.charge("session", self.effort_policy.evaluation_receipt_cost())
        adversary.network.send(
            exchange.identity, exchange.victim, receipt, message_size(receipt)
        )

    def observed(self) -> Dict[str, float]:
        return {
            "invitations_sent": float(self.invitations_sent),
            "invitations_admitted": float(self.invitations_admitted),
            "votes_received": float(self.votes_received),
            "oracle_skips": float(self.oracle_skips),
        }


@VECTOR_REGISTRY.register("effort_attrition")
class EffortAttritionVector(BruteForcePollVector):
    """Reservation flood: pay intro effort, never follow up, waste slots.

    The effort-attrition specialization of the brute-force machinery: the
    defection point is pinned to ``intro`` and the schedule oracle is off, so
    every admitted invitation burns a victim reservation (and every refused
    one still costs the victim a verification) while the adversary never
    computes a remaining proof.  Maximizes wasted loyal effort per adversary
    invitation rather than emulating legitimacy.
    """

    defaults = {
        "attempts_per_victim_au_per_day": 12.0,
        "identity_pool_size": 100,
        "identity_prefix": "attrition",
    }

    def __init__(
        self,
        attempts_per_victim_au_per_day: float = 12.0,
        identity_pool_size: int = 100,
        identity_prefix: str = "attrition",
    ) -> None:
        super().__init__(
            defection=DefectionPoint.INTRO,
            attempts_per_victim_au_per_day=attempts_per_victim_au_per_day,
            identity_pool_size=identity_pool_size,
            use_schedule_oracle=False,
            identity_prefix=identity_prefix,
        )
