"""A complete LOCKSS peer.

A :class:`Peer` plays both protocol roles for every AU it preserves: it calls
its own polls (poller role, :class:`repro.core.poller.PollerPoll`) at a fixed
self-chosen rate, and it serves other peers' polls (voter role,
:class:`repro.core.voter.VoterSession`) subject to its admission-control
filter and task schedule.  The peer owns all the per-AU defensive state —
reference list, known-peers list, refractory period, introductions — plus the
peer-wide task schedule and effort account.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..config import ProtocolConfig
from ..crypto.effort import EffortAccount, EffortScheme, charge_account
from ..crypto.hashing import HashCostModel
from ..metrics.polls import PollStatistics
from ..sim.engine import Simulator
from ..sim.network import Message, Network, Node
from ..storage.au import ArchivalUnit
from ..storage.replica import Replica, ReplicaSet
from .admission import AdmissionControl
from .effort_policy import EffortPolicy, SolicitationEffort
from .messages import (
    EvaluationReceipt,
    Poll,
    PollAck,
    PollProof,
    Repair,
    RepairRequest,
    Vote,
    message_size,
)
from .poller import PollerPoll
from .reference_list import ReferenceList
from .reputation import Grade, IntroductionTable, KnownPeers
from .voter import VoterSession


@dataclass
class AUState:
    """All per-AU state kept by one peer."""

    au: ArchivalUnit
    replica: Replica
    reference_list: ReferenceList
    known_peers: KnownPeers
    introductions: IntroductionTable
    admission: AdmissionControl
    #: Solicitation effort quantities for this AU's (fixed) geometry,
    #: precomputed once so invitation handling never re-prices them.
    solicitation_effort: "SolicitationEffort" = None  # type: ignore[assignment]
    voter_commitment: float = 0.0
    active_poll: Optional[PollerPoll] = None
    polls_called: int = 0


class Peer(Node):
    """One loyal LOCKSS peer preserving a collection of AUs."""

    def __init__(
        self,
        peer_id: str,
        simulator: Simulator,
        network: Network,
        config: ProtocolConfig,
        cost_model: HashCostModel,
        effort_scheme: EffortScheme,
        rng,
        collector: Optional[PollStatistics] = None,
    ) -> None:
        super().__init__(peer_id)
        self.peer_id = peer_id
        self.simulator = simulator
        self.network = network
        self.config = config
        self.cost_model = cost_model
        self.effort_scheme = effort_scheme
        self.effort_policy = EffortPolicy(config, cost_model)
        self.rng = rng
        self.collector = collector if collector is not None else PollStatistics()

        self.replicas = ReplicaSet(peer_id)
        self.effort = EffortAccount()
        self.schedule = _import_task_schedule()
        self.alarms = 0
        #: When False the peer stops calling polls and answering invitations
        #: (used to model crashed peers in fault-injection tests).
        self.active = True
        #: Disable admission control entirely (ablation experiments).
        self.admission_enabled = config.admission_control_enabled

        self._au_states: Dict[str, AUState] = {}
        self._polls_by_id: Dict[str, PollerPoll] = {}
        self._voter_sessions: Dict[str, VoterSession] = {}
        #: AUs whose fixed-rate poll chain broke while the peer was down
        #: (the chain's re-arming event fired during the outage); restart
        #: re-kicks exactly these.
        self._broken_chains: Set[str] = set()
        self._poll_counter = itertools.count(1)
        self._schedule_prune_counter = 0
        #: Replay tap (see :mod:`repro.replay`); None costs one attribute
        #: load + branch per considered invitation.
        self.tracer = None

    # -- setup -----------------------------------------------------------------------

    def add_au(
        self,
        au: ArchivalUnit,
        friends: Sequence[str] = (),
        initial_reference_list: Sequence[str] = (),
    ) -> AUState:
        """Start preserving ``au``.

        Peers on the initial reference list are bootstrapped with an EVEN
        grade: they correspond to peers this peer has interacted with before
        the simulated window begins (the deployed system's steady state).
        """
        replica = self.replicas.add(au)
        reference_list = ReferenceList(
            owner=self.peer_id,
            friends=friends,
            target_size=self.config.reference_list_target_size,
        )
        known_peers = KnownPeers(decay_interval=self.config.grade_decay_interval)
        introductions = IntroductionTable(cap=self.config.max_outstanding_introductions)
        admission = AdmissionControl(
            config=self.config,
            known_peers=known_peers,
            introductions=introductions,
            rng=self.rng,
            enabled=self.admission_enabled,
        )
        state = AUState(
            au=au,
            replica=replica,
            reference_list=reference_list,
            known_peers=known_peers,
            introductions=introductions,
            admission=admission,
            solicitation_effort=self.effort_policy.solicitation(au),
            voter_commitment=self.effort_policy.voter_commitment(au),
        )
        for peer_id in initial_reference_list:
            if peer_id != self.peer_id:
                reference_list.add(peer_id)
                known_peers.set_grade(peer_id, Grade.EVEN, self.simulator.now)
        self._au_states[au.au_id] = state
        return state

    def au_state(self, au_id: str) -> AUState:
        """The per-AU state for ``au_id`` (KeyError if not preserved here)."""
        return self._au_states[au_id]

    def au_ids(self) -> List[str]:
        return list(self._au_states)

    # -- poll scheduling ----------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first poll on every AU at a random offset.

        The random offsets desynchronize polls across peers and AUs, as the
        deployed system's operation naturally does.
        """
        for au_id in self._au_states:
            offset = self.rng.uniform(0.0, self.config.poll_interval)
            self.simulator.post(offset, self.start_poll, au_id)

    def start_poll(self, au_id: str) -> Optional[PollerPoll]:
        """Begin a new poll on ``au_id`` and schedule the next one after it."""
        if not self.active:
            # The chain's next link never gets armed: remember the break so
            # a restart can re-kick this AU's fixed-rate schedule.
            self._broken_chains.add(au_id)
            return None
        state = self._au_states[au_id]
        interval = self.config.poll_interval
        jitter = self.config.poll_interval_jitter
        duration = interval * (1.0 + self.rng.uniform(-jitter, jitter))
        now = self.simulator.now
        poll_id = "%s/%s/%d" % (self.peer_id, au_id, next(self._poll_counter))
        poll = PollerPoll(
            peer=self,
            au_id=au_id,
            poll_id=poll_id,
            started_at=now,
            deadline=now + duration,
        )
        state.active_poll = poll
        state.polls_called += 1
        self._polls_by_id[poll_id] = poll
        # Reserve the evaluation work in the schedule so that voting
        # commitments to others cannot crowd out our own audits entirely.
        evaluation_cost = self.effort_policy.evaluation_base_cost(state.au)
        self.schedule.reserve(
            evaluation_cost, poll.evaluation_time, poll.deadline, label="evaluate:" + au_id
        )
        poll.start()
        # Fixed rate of operation: the next poll starts when this one's
        # interval ends, regardless of its outcome (rate limitation defense).
        self.simulator.post_at(poll.deadline, self.start_poll, au_id)
        self._maybe_prune_schedule(now)
        return poll

    def on_poll_concluded(self, poll: PollerPoll) -> None:
        """Book-keeping when one of this peer's own polls concludes."""
        state = self._au_states.get(poll.au_id)
        if state is not None and state.active_poll is poll:
            state.active_poll = None
        self._polls_by_id.pop(poll.poll_id, None)

    # -- crash / restart ----------------------------------------------------------------

    def crash(self) -> None:
        """Go down: stop polling and voting, cancel every pending engine event.

        In-flight polls are abandoned without an outcome record, voter
        sessions are aborted (their schedule reservations released), and all
        cancellable timers owned by either are cancelled.  Inbound messages
        — including those already in flight — are dropped by the
        :meth:`receive_message` guard until :meth:`restart`.
        """
        if not self.active:
            return
        self.active = False
        for poll in list(self._polls_by_id.values()):
            poll.abandon()
        self._polls_by_id.clear()
        for state in self._au_states.values():
            state.active_poll = None
        for session in list(self._voter_sessions.values()):
            session.abort()
        self._voter_sessions.clear()

    def restart(
        self,
        rng,
        lose_replicas: bool = False,
        lose_reference_lists: bool = False,
    ) -> None:
        """Come back up, optionally with state loss, and resume polling.

        ``lose_replicas`` damages every block of every replica (the restarted
        peer holds no trustworthy content, so the next polls on each AU force
        re-audit and repair); ``lose_reference_lists`` forgets every learned
        reference-list entry, leaving only the operator-maintained friends to
        bootstrap from — the rejoin then runs through other peers' admission
        control like any newcomer.  ``rng`` supplies the re-kick jitter for
        poll chains that broke during the outage; callers pass a dedicated
        fault lane so the peer's own sample path stays undisturbed.
        """
        if self.active:
            return
        self.active = True
        if lose_replicas:
            for state in self._au_states.values():
                replica = state.replica
                for block in range(replica.au.n_blocks):
                    replica.damage_block(block)
        if lose_reference_lists:
            for state in self._au_states.values():
                state.reference_list.reset()
        broken, self._broken_chains = self._broken_chains, set()
        for au_id in self._au_states:
            if au_id in broken:
                offset = rng.uniform(0.0, self.config.poll_interval)
                self.simulator.post(offset, self.start_poll, au_id)

    # -- message plumbing ----------------------------------------------------------------------

    def send(self, recipient: str, payload: object) -> bool:
        """Send a protocol message through the network."""
        n_blocks = 0
        if payload.__class__ is Vote:
            au_state = self._au_states.get(payload.au_id)
            if au_state is not None:
                n_blocks = au_state.au.n_blocks
        size = message_size(payload, n_blocks=n_blocks)
        return self.network.send(self.peer_id, recipient, payload, size)

    def charge(self, category: str, amount: float) -> None:
        """Charge compute effort to this peer's effort account."""
        charge_account(self.effort, category, amount)

    def receive_message(self, message: Message) -> None:
        """Dispatch an inbound network message to the right state machine.

        Message types are final (slotted dataclasses, never subclassed), so
        dispatch compares classes directly instead of running the isinstance
        chain — this is the single busiest protocol entry point.
        """
        if not self.active:
            return
        payload = message.payload
        kind = payload.__class__
        if kind is Poll:
            self._handle_poll_invitation(payload)
        elif kind is PollAck:
            poll = self._polls_by_id.get(payload.poll_id)
            if poll is not None:
                poll.on_poll_ack(payload)
        elif kind is Vote:
            poll = self._polls_by_id.get(payload.poll_id)
            if poll is not None:
                poll.on_vote(payload)
        elif kind is Repair:
            poll = self._polls_by_id.get(payload.poll_id)
            if poll is not None:
                poll.on_repair(payload)
        elif kind is PollProof:
            session = self._voter_sessions.get(payload.poll_id)
            if session is not None:
                session.on_poll_proof(payload)
        elif kind is RepairRequest:
            session = self._voter_sessions.get(payload.poll_id)
            if session is not None:
                session.on_repair_request(payload)
        elif kind is EvaluationReceipt:
            session = self._voter_sessions.get(payload.poll_id)
            if session is not None:
                session.on_receipt(payload)
        # Unknown payloads (adversarial garbage) are ignored at zero cost
        # beyond the bandwidth already spent delivering them.

    # -- voter-side invitation handling -------------------------------------------------------------

    def _handle_poll_invitation(self, invitation: Poll) -> None:
        """Apply the admission-control and effort filters to an invitation."""
        state = self._au_states.get(invitation.au_id)
        if state is None:
            return
        if invitation.poll_id in self._voter_sessions:
            return
        now = self.simulator._now

        result = state.admission.consider(invitation.poller_id, now)
        admitted = result.admitted
        tracer = self.tracer
        if tracer is not None:
            # No record built here: flood traffic runs through this site,
            # and the telemetry tracer aggregates instead of recording —
            # only the replay Tracer.admission materializes the "adm" list.
            tracer.admission(
                now, self.peer_id, invitation.poller_id, result.decision.value
            )
        # charge_account directly (not self.charge): this path runs once per
        # considered invitation, flood traffic included.
        charge_account(self.effort, "session" if admitted else "drop", result.cost)
        if not admitted:
            return

        effort = state.solicitation_effort
        charge_account(self.effort, "verify", effort.introductory_verification)
        if not self.effort_scheme.verify(
            invitation.introductory_effort, effort.introductory * 0.99
        ):
            # Effortless invitation flood: detected at verification cost,
            # sender penalized, no reply.
            state.known_peers.penalize(invitation.poller_id, now)
            return

        commitment = state.voter_commitment
        reservation = self.schedule.reserve(
            commitment, now, invitation.vote_deadline, label="vote:" + invitation.poll_id
        )
        if reservation is None:
            refusal = PollAck(
                poll_id=invitation.poll_id,
                au_id=invitation.au_id,
                voter_id=self.peer_id,
                accepted=False,
                reason="busy",
            )
            self.send(invitation.poller_id, refusal)
            return

        session = VoterSession(
            peer=self,
            invitation=invitation,
            reservation=reservation,
            effort=effort,
        )
        self._voter_sessions[invitation.poll_id] = session
        acceptance = PollAck(
            poll_id=invitation.poll_id,
            au_id=invitation.au_id,
            voter_id=self.peer_id,
            accepted=True,
            estimated_completion=reservation.end,
        )
        self.send(invitation.poller_id, acceptance)

    def remove_voter_session(self, poll_id: str) -> None:
        """Forget a finished voter session (called by the session itself)."""
        self._voter_sessions.pop(poll_id, None)

    def voter_session(self, poll_id: str) -> Optional[VoterSession]:
        """Look up an active voter session (testing and diagnostics)."""
        return self._voter_sessions.get(poll_id)

    def active_voter_sessions(self) -> int:
        return len(self._voter_sessions)

    def active_polls(self) -> int:
        return len(self._polls_by_id)

    # -- maintenance ------------------------------------------------------------------------------------

    def _maybe_prune_schedule(self, now: float) -> None:
        """Periodically drop long-past reservations to keep lookups fast."""
        self._schedule_prune_counter += 1
        if self._schedule_prune_counter % 16 == 0:
            self.schedule.prune(now - self.config.poll_interval)


def _import_task_schedule():
    """Construct a TaskSchedule (isolated for monkeypatching in tests)."""
    from .scheduler import TaskSchedule

    return TaskSchedule()
