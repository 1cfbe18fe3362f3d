"""Integration tests: a complete poll among a small population of real peers."""

import pytest

from repro import units
from repro.core.poller import PollOutcome
from repro.core.reputation import Grade
from repro.storage.au import ArchivalUnit


def build_population(peer_factory, small_au, count=8):
    """Create ``count`` peers all preserving ``small_au`` and knowing each other."""
    peers = [peer_factory() for _ in range(count)]
    ids = [p.peer_id for p in peers]
    for peer in peers:
        others = [pid for pid in ids if pid != peer.peer_id]
        peer.add_au(small_au, friends=others[:2], initial_reference_list=others)
    return peers


class TestSuccessfulPoll:
    def test_poll_completes_successfully(self, simulator, peer_factory, small_au, collector):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)

        assert poll.concluded
        assert poll.outcome == PollOutcome.SUCCESS
        assert poll.record is not None
        assert poll.record.success
        assert poll.record.inner_votes >= poller.config.quorum
        assert poll.record.disagreeing == 0

    def test_votes_were_solicited_individually_over_time(
        self, simulator, peer_factory, small_au, collector
    ):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        # Desynchronization: voters computed their votes at spread-out times.
        completion_times = [
            progress.estimated_completion
            for progress in poll.voters.values()
            if progress.estimated_completion > 0
        ]
        assert len(completion_times) >= poller.config.quorum
        assert max(completion_times) - min(completion_times) > units.DAY

    def test_poller_charged_more_effort_than_any_single_voter(
        self, simulator, peer_factory, small_au, collector
    ):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        voter_efforts = [p.effort.total for p in peers[1:]]
        assert poller.effort.total > max(voter_efforts)

    def test_reputation_updated_reciprocally(self, simulator, peer_factory, small_au, collector):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        now = simulator.now
        voters_that_voted = list(poll.votes)
        assert voters_that_voted
        poller_state = poller.au_state(small_au.au_id)
        for voter_id in voters_that_voted:
            # The poller owes each voter a vote: their grade at the poller rose.
            assert poller_state.known_peers.grade_of(voter_id, now) is Grade.CREDIT
        # And each voter recorded the poller as being in its debt.
        for peer in peers[1:]:
            if peer.peer_id in voters_that_voted:
                grade = peer.au_state(small_au.au_id).known_peers.grade_of(poller.peer_id, now)
                assert grade is Grade.DEBT

    def test_reference_list_churned_after_poll(self, simulator, peer_factory, small_au, collector):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        before = set(poller.au_state(small_au.au_id).reference_list.entries())
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        after = set(poller.au_state(small_au.au_id).reference_list.entries())
        used_inner_voters = {
            voter_id for voter_id, vote in poll.votes.items()
            if poll.voters[voter_id].circle == "inner"
        }
        assert used_inner_voters
        # Used inner-circle voters are removed; friend bias may legitimately
        # re-insert the few that are also on the operator's friends list.
        friends = set(poller.au_state(small_au.au_id).reference_list.friends)
        assert not ((used_inner_voters - friends) & after), (
            "non-friend inner-circle voters must be removed"
        )
        assert before != after

    def test_evaluation_receipts_close_voter_sessions(
        self, simulator, peer_factory, small_au, collector
    ):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + 2 * units.DAY)
        for peer in peers:
            assert peer.active_voter_sessions() == 0

    def test_next_poll_is_scheduled_at_fixed_rate(self, simulator, peer_factory, small_au, collector):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        first = poller.start_poll(small_au.au_id)
        simulator.run(until=first.deadline + 2 * units.DAY)
        # A second poll must have started right after the first one's deadline.
        state = poller.au_state(small_au.au_id)
        assert state.polls_called == 2
        assert state.active_poll is not None
        assert state.active_poll.started_at == pytest.approx(first.deadline)

    def test_collector_records_the_poll(self, simulator, peer_factory, small_au, collector):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        assert collector.successful_polls >= 1
        assert collector.votes_received >= poller.config.quorum
        assert collector.invitations_sent >= poller.config.quorum


class TestInquoratePoll:
    def test_too_few_reachable_voters_fails_the_poll(
        self, simulator, peer_factory, small_au, collector
    ):
        # Only two other peers exist: the quorum of 3 cannot be met.
        peers = build_population(peer_factory, small_au, count=3)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        assert poll.concluded
        assert poll.outcome == PollOutcome.INQUORATE
        assert collector.failed_polls >= 1

    def test_unreachable_population_fails_the_poll(
        self, simulator, network, peer_factory, small_au, collector
    ):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        for peer in peers[1:]:
            network.block(peer.peer_id)
        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        assert poll.outcome == PollOutcome.INQUORATE
        assert len(poll.votes) == 0



class TestSilentVoter:
    def test_an_accepted_voter_that_never_votes_is_penalized(
        self, simulator, network, peer_factory, small_au, collector
    ):
        # Accepting and then never voting wastes the poller's effort, the
        # attrition the paper defends against: once the voter's estimated
        # completion plus vote_timeout_slack passes without a vote, the
        # poller marks it silent and its grade drops to debt.
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        poll = poller.start_poll(small_au.au_id)
        silenced = []
        on_poll_ack = poll.on_poll_ack

        def cut_off_the_first_acceptor(message):
            on_poll_ack(message)
            if message.accepted and not silenced:
                # The poller's proof is on the wire; the voter never gets it.
                network.block(message.voter_id)
                silenced.append(message.voter_id)

        poll.on_poll_ack = cut_off_the_first_acceptor
        simulator.run(until=poll.solicitation_end)
        (accepted,) = silenced
        progress = poll.voters[accepted]
        timeout = progress.estimated_completion + poller.config.vote_timeout_slack
        assert timeout < poll.evaluation_time, "the poll would conclude first"
        simulator.run(until=poll.deadline + units.DAY)

        assert accepted not in poll.votes
        assert progress.state == "silent"
        grade = poller.au_state(small_au.au_id).known_peers.grade_of(accepted, simulator.now)
        assert grade is Grade.DEBT


class TestDamageAndRepair:
    def test_damaged_poller_repairs_itself_from_the_majority(
        self, simulator, peer_factory, small_au, collector
    ):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        replica = poller.au_state(small_au.au_id).replica
        replica.damage_block(2)
        replica.damage_block(5)
        assert replica.is_damaged

        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)

        assert poll.outcome == PollOutcome.SUCCESS
        assert not replica.is_damaged, "repairs must restore the canonical content"
        assert poll.repairs_applied >= 2
        assert collector.repairs_supplied >= 2

    def test_single_damaged_voter_does_not_trigger_repair_at_poller(
        self, simulator, peer_factory, small_au, collector
    ):
        peers = build_population(peer_factory, small_au)
        poller, damaged_voter = peers[0], peers[1]
        damaged_voter.au_state(small_au.au_id).replica.damage_block(1)

        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)

        assert poll.outcome == PollOutcome.SUCCESS
        assert not poller.au_state(small_au.au_id).replica.is_damaged
        # The disagreeing voter is in the minority; at most a frivolous
        # repair may have been exchanged, never an adopted one.
        assert poll.record.disagreeing <= 1

    def test_poller_does_not_adopt_minority_damage(self, simulator, peer_factory, small_au, collector):
        peers = build_population(peer_factory, small_au)
        poller = peers[0]
        # Two voters share identical damage, but they are still a small
        # minority: the poller must not adopt their version.
        tag = peers[1].au_state(small_au.au_id).replica.damage_block(3)
        peers[2].au_state(small_au.au_id).replica.damage_block(3, tag=tag)

        poll = poller.start_poll(small_au.au_id)
        simulator.run(until=poll.deadline + units.DAY)
        assert not poller.au_state(small_au.au_id).replica.is_damaged
