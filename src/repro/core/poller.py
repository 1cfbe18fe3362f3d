"""Poller-side poll state machine.

A poll on one AU proceeds through the phases of Figure 1 in the paper,
stretched over (most of) an inter-poll interval:

1. **Inner-circle solicitation** — the poller samples an inner circle twice
   the quorum size from its reference list and solicits votes from its
   members *individually at random times* across the solicitation window
   (the desynchronization defense), retrying reluctant peers later in the
   same window.
2. **Outer-circle solicitation** — peers nominated in the received votes are
   sampled into an outer circle and solicited the same way; their votes do
   not determine the outcome but demonstrate good behaviour for discovery.
3. **Evaluation** — the poller hashes its own replica, compares every vote
   block by block, obtains repairs for blocks where a landslide of voters
   disagrees with it, optionally requests a frivolous repair, then tallies.
4. **Conclusion** — receipts are sent to every evaluated voter, first-hand
   reputation and the reference list are updated, and the outcome recorded.

The poller never reacts to adversity by changing its rate: a failed poll is
simply recorded and the next poll starts on schedule (rate limitation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..crypto.hashing import make_nonce
from ..metrics.polls import PollRecord
from .messages import (
    EvaluationReceipt,
    Poll,
    PollAck,
    PollProof,
    Repair,
    RepairRequest,
    Vote,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .peer import Peer


class PollOutcome:
    """Possible poll outcomes."""

    SUCCESS = "success"
    INQUORATE = "inquorate"
    OUTVOTED = "outvoted"
    INCONCLUSIVE = "inconclusive"


@dataclass
class _VoterProgress:
    """Poller-side bookkeeping for one solicited voter."""

    circle: str  # "inner" or "outer"
    state: str = "pending"  # pending -> invited -> accepted -> voted | refused | silent | invalid
    retries: int = 0
    invitation_handle: object = None
    vote_timeout_handle: object = None
    remaining_byproduct: Optional[bytes] = None
    estimated_completion: float = 0.0


class PollerPoll:
    """One poll conducted by one peer on one AU."""

    def __init__(
        self,
        peer: "Peer",
        au_id: str,
        poll_id: str,
        started_at: float,
        deadline: float,
    ) -> None:
        if deadline <= started_at:
            raise ValueError("poll deadline must be after its start")
        self.peer = peer
        self.au_id = au_id
        self.poll_id = poll_id
        self.started_at = started_at
        self.deadline = deadline

        config = peer.config
        duration = deadline - started_at
        self.solicitation_end = started_at + config.solicitation_fraction * duration
        self.outer_end = self.solicitation_end + config.outer_circle_fraction * duration
        self.evaluation_time = self.outer_end
        # Leave the tail of the poll for repair exchanges before concluding.
        self.repair_deadline = self.evaluation_time + 0.5 * (deadline - self.evaluation_time)

        self.voters: Dict[str, _VoterProgress] = {}
        self.votes: Dict[str, Vote] = {}
        #: Voter ids in vote-arrival order; mirrors ``votes`` so random
        #: supplier choice can index directly instead of materializing the
        #: dict's keys on every draw.
        self._vote_order: List[str] = []
        self.nominations: List[Tuple[str, str]] = []  # (nominee, nominating voter)
        self.pending_repairs: Set[int] = set()
        self.repairs_applied = 0
        self.concluded = False
        self.outcome: Optional[str] = None
        self.record: Optional[PollRecord] = None
        self._finalize_handle = None
        self._phase_handles: List[object] = []

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Sample the inner circle and schedule its solicitations."""
        peer = self.peer
        config = peer.config
        au_state = peer.au_state(self.au_id)
        inner_circle = au_state.reference_list.sample_inner_circle(
            peer.rng, config.inner_circle_size
        )
        now = peer.simulator.now
        window_end = max(self.solicitation_end - config.invitation_timeout, now)
        for voter_id in inner_circle:
            self.voters[voter_id] = _VoterProgress(circle="inner")
            when = peer.rng.uniform(now, window_end) if window_end > now else now
            handle = peer.simulator.schedule_at(when, self._invite, voter_id)
            self.voters[voter_id].invitation_handle = handle
        self._phase_handles.append(
            peer.simulator.schedule_at(self.solicitation_end, self._begin_outer_circle)
        )
        self._phase_handles.append(
            peer.simulator.schedule_at(self.evaluation_time, self._begin_evaluation)
        )

    # -- solicitation -------------------------------------------------------------------

    def _invite(self, voter_id: str) -> None:
        """Send one Poll invitation (with introductory effort) to ``voter_id``."""
        if self.concluded:
            return
        peer = self.peer
        progress = self.voters[voter_id]
        if progress.state in ("accepted", "voted"):
            return
        au_state = peer.au_state(self.au_id)
        effort = au_state.solicitation_effort

        peer.charge("proof", effort.introductory)
        intro_proof = peer.effort_scheme.generate(peer.peer_id, effort.introductory)
        # Positional: poll_id, au_id, poller_id, vote_deadline, introductory_effort.
        invitation = Poll(
            self.poll_id, self.au_id, peer.peer_id, self.evaluation_time, intro_proof
        )
        progress.state = "invited"
        peer.send(voter_id, invitation)
        peer.collector.record_invitation(None)
        progress.invitation_handle = peer.simulator.schedule(
            peer.config.invitation_timeout, self._on_invitation_timeout, voter_id
        )

    def _retry_later(self, voter_id: str) -> None:
        """Re-try a reluctant or unresponsive voter later in its window."""
        peer = self.peer
        progress = self.voters[voter_id]
        if progress.retries >= peer.config.max_invitation_retries:
            return
        window_end = self.solicitation_end if progress.circle == "inner" else self.outer_end
        window_end -= peer.config.invitation_timeout
        now = peer.simulator.now
        if now >= window_end:
            return
        progress.retries += 1
        when = peer.rng.uniform(now, window_end)
        progress.invitation_handle = peer.simulator.schedule_at(when, self._invite, voter_id)

    def _on_invitation_timeout(self, voter_id: str) -> None:
        """No PollAck arrived: the voter is unreachable, refractory, or hostile."""
        if self.concluded:
            return
        progress = self.voters[voter_id]
        if progress.state != "invited":
            return
        progress.state = "silent"
        self._retry_later(voter_id)

    def on_poll_ack(self, message: PollAck) -> None:
        """Handle acceptance or refusal of an invitation."""
        if self.concluded:
            return
        peer = self.peer
        progress = self.voters.get(message.voter_id)
        if progress is None or progress.state not in ("invited", "silent"):
            return
        self._cancel(progress.invitation_handle)
        progress.invitation_handle = None

        if not message.accepted:
            progress.state = "refused"
            peer.collector.record_invitation(False)
            self._retry_later(message.voter_id)
            return

        peer.collector.record_invitation(True)
        progress.state = "accepted"
        progress.estimated_completion = message.estimated_completion

        au_state = peer.au_state(self.au_id)
        effort = au_state.solicitation_effort
        peer.charge("proof", effort.remaining)
        remaining_proof = peer.effort_scheme.generate(peer.peer_id, effort.remaining)
        progress.remaining_byproduct = remaining_proof.byproduct

        proof_message = PollProof(
            poll_id=self.poll_id,
            au_id=self.au_id,
            poller_id=peer.peer_id,
            nonce=make_nonce(peer.rng),
            remaining_effort=remaining_proof,
        )
        peer.send(message.voter_id, proof_message)

        vote_expected_by = (
            max(message.estimated_completion, peer.simulator.now)
            + peer.config.vote_timeout_slack
        )
        progress.vote_timeout_handle = peer.simulator.schedule_at(
            vote_expected_by, self._on_vote_timeout, message.voter_id
        )

    def _on_vote_timeout(self, voter_id: str) -> None:
        """An accepted voter never delivered its vote: penalize it."""
        if self.concluded:
            return
        progress = self.voters[voter_id]
        if progress.state != "accepted":
            return
        progress.state = "silent"
        peer = self.peer
        peer.au_state(self.au_id).known_peers.penalize(voter_id, peer.simulator.now)

    def on_vote(self, message: Vote) -> None:
        """Verify and record a received vote; accumulate discovery nominations."""
        if self.concluded:
            return
        peer = self.peer
        progress = self.voters.get(message.voter_id)
        if progress is None or progress.state not in ("accepted", "invited", "silent"):
            return
        self._cancel(progress.vote_timeout_handle)
        progress.vote_timeout_handle = None

        au_state = peer.au_state(self.au_id)
        effort = au_state.solicitation_effort
        peer.charge("verify", effort.vote_proof_verification)
        if message.bogus or not peer.effort_scheme.verify(
            message.vote_proof, effort.vote_proof_generation * 0.99
        ):
            progress.state = "invalid"
            au_state.known_peers.penalize(message.voter_id, peer.simulator.now)
            return

        progress.state = "voted"
        self.votes[message.voter_id] = message
        self._vote_order.append(message.voter_id)
        peer.collector.record_vote_received()

        # Discovery: the poller randomly partitions the identities in the
        # vote into outer-circle nominations and introductions.
        for nominee in message.nominations:
            if nominee == peer.peer_id:
                continue
            if peer.rng.random() < peer.config.introduction_fraction:
                au_state.introductions.add(nominee, message.voter_id)
            else:
                self.nominations.append((nominee, message.voter_id))

    # -- outer circle --------------------------------------------------------------------

    def _begin_outer_circle(self) -> None:
        """Sample the outer circle from accumulated nominations and solicit it."""
        if self.concluded:
            return
        peer = self.peer
        config = peer.config
        au_state = peer.au_state(self.au_id)
        known = set(self.voters) | {peer.peer_id}
        candidates = [
            nominee
            for nominee, _ in self.nominations
            if nominee not in known and nominee not in au_state.reference_list
        ]
        # Deduplicate while preserving nomination frequency as implicit weight.
        seen: Set[str] = set()
        unique_candidates: List[str] = []
        for nominee in candidates:
            if nominee not in seen:
                seen.add(nominee)
                unique_candidates.append(nominee)
        count = min(config.outer_circle_size, len(unique_candidates))
        if count <= 0:
            return
        outer = peer.rng.sample(unique_candidates, count)
        now = peer.simulator.now
        window_end = max(self.outer_end - config.invitation_timeout, now)
        for voter_id in outer:
            self.voters[voter_id] = _VoterProgress(circle="outer")
            when = peer.rng.uniform(now, window_end) if window_end > now else now
            handle = peer.simulator.schedule_at(when, self._invite, voter_id)
            self.voters[voter_id].invitation_handle = handle

    # -- evaluation ------------------------------------------------------------------------

    def _inner_votes(self) -> Dict[str, Vote]:
        return {
            voter_id: vote
            for voter_id, vote in self.votes.items()
            if self.voters[voter_id].circle == "inner"
        }

    def _begin_evaluation(self) -> None:
        """Hash the local replica, compare votes block by block, request repairs."""
        if self.concluded:
            return
        peer = self.peer
        au_state = peer.au_state(self.au_id)
        au = au_state.replica.au

        peer.charge("hash", peer.effort_policy.evaluation_base_cost(au))
        peer.charge(
            "verify", peer.effort_policy.per_vote_evaluation_cost(au) * len(self.votes)
        )

        inner_votes = self._inner_votes()
        replica = au_state.replica

        # Determine, block by block, where a landslide of inner-circle voters
        # disagrees with our replica: those blocks are presumed damaged here
        # and repaired from a disagreeing voter.
        my_damage = replica.damage_tags
        blocks_to_check: Set[int] = set(my_damage)
        for vote in inner_votes.values():
            blocks_to_check.update(vote.block_tags)

        damaged_here: List[Tuple[int, List[str]]] = []
        for block in blocks_to_check:
            my_tag = my_damage.get(block)
            disagreeing_voters = [
                voter_id
                for voter_id, vote in inner_votes.items()
                if vote.block_tags.get(block) != my_tag
            ]
            agreeing = len(inner_votes) - len(disagreeing_voters)
            if len(disagreeing_voters) > agreeing and disagreeing_voters:
                damaged_here.append((block, disagreeing_voters))

        for block, disagreeing_voters in damaged_here:
            supplier = peer.rng.choice(disagreeing_voters)
            self._request_repair(supplier, block, frivolous=False)

        # Frivolous repair: occasionally request a block we agree on, to keep
        # voters honest about their willingness to supply repairs.
        if self.votes and peer.rng.random() < peer.config.frivolous_repair_probability:
            supplier = peer.rng.choice(self._vote_order)
            block = peer.rng.randrange(au.n_blocks)
            self._request_repair(supplier, block, frivolous=True)

        if not self.pending_repairs:
            self._finalize()
        else:
            self._finalize_handle = peer.simulator.schedule_at(
                self.repair_deadline, self._finalize
            )

    def _request_repair(self, voter_id: str, block: int, frivolous: bool) -> None:
        peer = self.peer
        request = RepairRequest(
            poll_id=self.poll_id,
            au_id=self.au_id,
            poller_id=peer.peer_id,
            block_index=block,
            frivolous=frivolous,
        )
        if not frivolous:
            self.pending_repairs.add(block)
        peer.send(voter_id, request)

    def on_repair(self, message: Repair) -> None:
        """Apply a received repair block and re-evaluate it."""
        if self.concluded:
            return
        peer = self.peer
        au_state = peer.au_state(self.au_id)
        au = au_state.replica.au
        if not 0 <= message.block_index < au.n_blocks:
            return
        peer.charge("repair", peer.effort_policy.repair_apply_cost(au))
        if message.block_index in self.pending_repairs:
            au_state.replica.repair_block(message.block_index, message.source_tag)
            self.pending_repairs.discard(message.block_index)
            self.repairs_applied += 1
            peer.collector.record_repair_applied()
        if not self.pending_repairs and self._finalize_handle is not None:
            self._cancel(self._finalize_handle)
            self._finalize_handle = None
            self._finalize()

    # -- conclusion ---------------------------------------------------------------------------

    def _finalize(self) -> None:
        """Tally the votes, send receipts, update reputation and reference list."""
        if self.concluded:
            return
        self.concluded = True
        peer = self.peer
        config = peer.config
        au_state = peer.au_state(self.au_id)
        replica = au_state.replica
        now = peer.simulator.now

        inner_votes = self._inner_votes()
        agreeing: List[str] = []
        disagreeing: List[str] = []
        for voter_id, vote in inner_votes.items():
            if self._vote_agrees(vote, replica):
                agreeing.append(voter_id)
            else:
                disagreeing.append(voter_id)

        alarm = False
        if len(inner_votes) < config.quorum:
            self.outcome = PollOutcome.INQUORATE
        elif len(disagreeing) <= config.max_disagreeing_votes:
            self.outcome = PollOutcome.SUCCESS
        elif len(agreeing) <= config.max_disagreeing_votes:
            # The landslide is against us and repairs did not (or could not)
            # bring us into the majority.
            self.outcome = PollOutcome.OUTVOTED
        else:
            self.outcome = PollOutcome.INCONCLUSIVE
            alarm = True
            peer.alarms += 1

        # Receipts prove evaluation to every voter whose vote was examined,
        # regardless of the poll's outcome (defense against wasteful attacks).
        for voter_id in self.votes:
            progress = self.voters[voter_id]
            receipt_bytes = progress.remaining_byproduct or b""
            peer.charge("session", peer.effort_policy.evaluation_receipt_cost())
            receipt = EvaluationReceipt(
                poll_id=self.poll_id,
                au_id=self.au_id,
                poller_id=peer.peer_id,
                receipt=receipt_bytes,
            )
            peer.send(voter_id, receipt)

        if self.outcome == PollOutcome.SUCCESS:
            # Every voter that supplied a valid vote (and any requested
            # repairs) has its grade raised: we now owe it a vote.
            for voter_id in self.votes:
                au_state.known_peers.record_vote_received(voter_id, now)
            agreeing_outer = [
                voter_id
                for voter_id, vote in self.votes.items()
                if self.voters[voter_id].circle == "outer"
                and self._vote_agrees(vote, replica)
            ]
            for voter_id in agreeing_outer:
                au_state.known_peers.ensure_known(voter_id, now)
            voters_used = list(inner_votes)
            for voter_id in voters_used:
                au_state.introductions.remove_introducer(voter_id)
            au_state.reference_list.update_after_poll(
                peer.rng,
                voters_used=voters_used,
                agreeing_outer_circle=agreeing_outer,
                friend_bias_count=config.friend_bias_count,
            )

        self.record = PollRecord(
            peer_id=peer.peer_id,
            au_id=self.au_id,
            started_at=self.started_at,
            concluded_at=now,
            success=self.outcome == PollOutcome.SUCCESS,
            reason=self.outcome or "unknown",
            inner_votes=len(inner_votes),
            agreeing=len(agreeing),
            disagreeing=len(disagreeing),
            repairs=self.repairs_applied,
            alarm=alarm,
        )
        peer.collector.record_poll(self.record)
        self._cleanup()
        peer.on_poll_concluded(self)

    @staticmethod
    def _vote_agrees(vote: Vote, replica) -> bool:
        """A vote agrees if the voter's replica matches ours on every block."""
        tags = vote.block_tags
        damage = replica.damage_tags
        damage_get = damage.get
        for block, tag in tags.items():
            if damage_get(block) != tag:
                return False
        for block, tag in damage.items():
            if block not in tags and tag is not None:
                return False
        return True

    def abandon(self) -> None:
        """Tear the poll down without an outcome record (the poller crashed).

        Cancels every timer the poll owns and unregisters it from the peer;
        no receipts are sent and no reputation or reference-list updates
        happen — solicited voters will time out on their own and penalize
        the (now silent) poller, exactly as they would for any dead poller.
        """
        if self.concluded:
            return
        self.concluded = True
        self._cleanup()
        self.peer.on_poll_concluded(self)

    # -- helpers ----------------------------------------------------------------------------------

    def _cleanup(self) -> None:
        """Cancel every outstanding timer owned by this poll."""
        for progress in self.voters.values():
            self._cancel(progress.invitation_handle)
            self._cancel(progress.vote_timeout_handle)
        for handle in self._phase_handles:
            self._cancel(handle)
        self._cancel(self._finalize_handle)

    @staticmethod
    def _cancel(handle) -> None:
        if handle is not None:
            handle.cancel()
