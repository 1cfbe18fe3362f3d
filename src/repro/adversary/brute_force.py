"""Brute-force effortful adversary.

To attack the filters downstream of admission control, the adversary must get
through admission control as fast as allowable (Section 7.4).  This adversary
continuously sends poll invitations carrying *valid* introductory effort from
identities pre-seeded in the debt grade at every victim (in-debt identities
suffer fewer random drops than unknown ones).  An oracle lets it inspect the
victims' task schedules, sparing it introductory efforts that would be wasted
on scheduling conflicts.

Once an invitation is admitted, the adversary defects at one of three points:

* ``INTRO`` — never follows up the Poll with a PollProof, wasting the
  victim's reserved schedule slot (reservation attack);
* ``REMAINING`` — sends the PollProof (paying the remaining effort), receives
  the victim's expensive vote, then never sends an evaluation receipt
  (wasteful attack);
* ``NONE`` — participates fully: sends the PollProof, evaluates the vote (it
  holds a magically incorruptible copy of every AU), and returns a valid
  receipt.  Table 1 shows this "emulate legitimacy" strategy is the
  adversary's most cost-effective one, and still barely moves the metrics.
"""

from __future__ import annotations

import enum
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .. import units
from ..config import ProtocolConfig
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
from ..crypto.hashing import HashCostModel, make_nonce
from ..sim.engine import Simulator
from ..sim.network import Message, Network
from .base import Adversary


class DefectionPoint(enum.Enum):
    """Where in the protocol exchange the brute-force adversary defects."""

    INTRO = "intro"
    REMAINING = "remaining"
    NONE = "none"


class _Exchange:
    """Adversary-side bookkeeping for one solicited victim exchange."""

    __slots__ = ("victim", "au_id", "identity", "remaining_byproduct")

    def __init__(self, victim: str, au_id: str, identity: str) -> None:
        self.victim = victim
        self.au_id = au_id
        self.identity = identity
        self.remaining_byproduct: Optional[bytes] = None


class BruteForceAdversary(Adversary):
    """Continuously solicits expensive votes from every victim, then defects."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        rng: random.Random,
        victims: Sequence,  # Sequence[Peer]; kept loose to avoid an import cycle
        protocol_config: ProtocolConfig,
        cost_model: HashCostModel,
        defection: DefectionPoint,
        end_time: float,
        attempts_per_victim_au_per_day: float = 5.0,
        identity_pool_size: int = 100,
        use_schedule_oracle: bool = True,
        node_id: str = "brute-force-adversary",
    ) -> None:
        super().__init__(node_id, simulator, network, rng)
        if attempts_per_victim_au_per_day <= 0:
            raise ValueError("attempts_per_victim_au_per_day must be positive")
        self.victims = list(victims)
        self.protocol_config = protocol_config
        self.effort_policy = EffortPolicy(protocol_config, cost_model)
        self.defection = defection
        self.end_time = end_time
        self.attempts_per_victim_au_per_day = attempts_per_victim_au_per_day
        self.use_schedule_oracle = use_schedule_oracle
        self.create_identities(identity_pool_size, prefix="indebt")
        self.invitations_sent = 0
        self.invitations_admitted = 0
        self.votes_received = 0
        self.oracle_skips = 0
        self._exchanges: Dict[str, _Exchange] = {}
        self._poll_counter = 0

    # -- setup -----------------------------------------------------------------------------

    def install(self, peers: Sequence) -> None:
        """Pre-seed every adversary identity with a DEBT grade at every victim.

        The paper conservatively initializes all adversary addresses with a
        debt grade at all loyal peers, so the attack starts from its steady
        state rather than spending the first weeks getting known.
        """
        now = self.simulator.now
        for peer in peers:
            for au_id in peer.au_ids():
                known = peer.au_state(au_id).known_peers
                for identity in self.identities:
                    known.set_grade(identity, Grade.DEBT, now)

    # -- lifecycle ----------------------------------------------------------------------------

    def start(self) -> None:
        interval_per_victim_au = units.DAY / self.attempts_per_victim_au_per_day
        for victim in self.victims:
            for au_id in victim.au_ids():
                first = self.simulator.now + self.rng.uniform(0.0, interval_per_victim_au)
                self.simulator.call_every(
                    interval_per_victim_au,
                    self._attempt,
                    victim,
                    au_id,
                    start=first,
                    end=self.end_time,
                )

    # -- attack loop ------------------------------------------------------------------------------

    def _attempt(self, victim, au_id: str) -> None:
        """Send one ostensibly legitimate invitation to ``victim`` for ``au_id``."""
        now = self.simulator._now
        if now >= self.end_time:
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

        identity = self.pick_identity()
        self._poll_counter += 1
        poll_id = "%s/attack/%d" % (identity, self._poll_counter)
        self._exchanges[poll_id] = _Exchange(victim.peer_id, au_id, identity)

        # The introductory effort is real: the whole point of the effortful
        # attack is to pay the toll that admission control demands.
        self.charge("proof", effort.introductory)
        intro_proof = self.effort_scheme.generate(identity, effort.introductory)
        invitation = Poll(
            poll_id=poll_id,
            au_id=au_id,
            poller_id=identity,
            vote_deadline=deadline,
            introductory_effort=intro_proof,
        )
        self.network.send(identity, victim.peer_id, invitation, message_size(invitation))
        self.invitations_sent += 1

    def _vote_deadline_offset(self) -> float:
        """How long the adversary gives victims to compute the solicited vote."""
        return 7 * units.DAY

    # -- reacting to victims ---------------------------------------------------------------------------

    def receive_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, PollAck):
            self._on_poll_ack(payload)
        elif isinstance(payload, Vote):
            self._on_vote(payload)
        # Receipts, repairs, and anything else are ignored.

    def _on_poll_ack(self, ack: PollAck) -> None:
        exchange = self._exchanges.get(ack.poll_id)
        if exchange is None or not ack.accepted:
            return
        self.invitations_admitted += 1
        if self.defection is DefectionPoint.INTRO:
            # Defect immediately: the victim's reserved slot goes to waste.
            return
        victim_peer = self._victim_by_id(exchange.victim)
        if victim_peer is None:
            return
        au = victim_peer.au_state(exchange.au_id).au
        effort = self.effort_policy.solicitation(au)
        self.charge("proof", effort.remaining)
        remaining_proof = self.effort_scheme.generate(exchange.identity, effort.remaining)
        exchange.remaining_byproduct = remaining_proof.byproduct
        proof_message = PollProof(
            poll_id=ack.poll_id,
            au_id=exchange.au_id,
            poller_id=exchange.identity,
            nonce=make_nonce(self.rng),
            remaining_effort=remaining_proof,
        )
        self.network.send(
            exchange.identity, exchange.victim, proof_message, message_size(proof_message)
        )

    def _on_vote(self, vote: Vote) -> None:
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
        self.charge("session", self.effort_policy.evaluation_receipt_cost())
        self.network.send(exchange.identity, exchange.victim, receipt, message_size(receipt))

    # -- helpers -----------------------------------------------------------------------------------------

    def _victim_by_id(self, peer_id: str):
        for victim in self.victims:
            if victim.peer_id == peer_id:
                return victim
        return None
