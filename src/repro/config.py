"""Configuration dataclasses for the LOCKSS attrition-defense simulation.

Two configuration objects drive every experiment:

* :class:`ProtocolConfig` — parameters of the LOCKSS audit-and-repair protocol
  and of its attrition defenses (poll interval, quorum, drop probabilities,
  refractory period, effort balancing factors, ...).  Defaults follow the
  values reported in Section 6.3 of the paper.

* :class:`SimulationConfig` — parameters of the simulated world (peer
  population, collection size, AU size, storage failure rate, network link
  characteristics, simulation horizon).  Defaults follow the paper; the
  :func:`scaled_config` helper produces a laptop-scale variant that exercises
  the same code paths with a smaller population and collection so that the
  benchmark harness completes in seconds rather than hours.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import units


@dataclass
class ProtocolConfig:
    """Parameters of the audit protocol and its attrition defenses."""

    # --- Polling ------------------------------------------------------------
    #: Mean interval between polls called by a peer on a given AU.
    poll_interval: float = units.months(3)
    #: Random jitter applied to each poll interval, as a fraction of the
    #: interval; desynchronizes polls across peers and AUs.
    poll_interval_jitter: float = 0.1
    #: Minimum number of inner-circle votes required for a poll to count.
    quorum: int = 10
    #: The poller invites ``inner_circle_factor * quorum`` inner-circle peers.
    inner_circle_factor: float = 2.0
    #: Landslide agreement tolerates at most this many disagreeing votes.
    max_disagreeing_votes: int = 3
    #: Fraction of the poll interval devoted to inner-circle vote solicitation.
    solicitation_fraction: float = 0.6
    #: Fraction of the poll interval devoted to outer-circle solicitation
    #: (starts where inner-circle solicitation ends).
    outer_circle_fraction: float = 0.25
    #: Maximum number of invitation retries per reluctant inner-circle voter.
    max_invitation_retries: int = 3
    #: Number of outer-circle peers sampled from accumulated nominations.
    outer_circle_size: int = 10
    #: Probability that the poller requests a frivolous repair from a random
    #: agreeing voter, to penalize repair free-riding (Section 4.3).
    frivolous_repair_probability: float = 0.05

    # --- Timeouts -----------------------------------------------------------
    #: How long a poller waits for a PollAck before treating the invitation
    #: as refused.
    invitation_timeout: float = units.HOUR
    #: Extra slack the poller allows beyond the voter's committed vote
    #: completion time before giving up on the Vote message.
    vote_timeout_slack: float = 6 * units.HOUR
    #: How long a voter waits for the PollProof after accepting an invitation.
    poll_proof_timeout: float = 6 * units.HOUR
    #: How long a voter waits after sending its Vote for the evaluation
    #: receipt before penalizing the poller (measured from the poll deadline).
    receipt_timeout_slack: float = units.DAY

    # --- Reference list / discovery -----------------------------------------
    #: Number of peers from the operator-maintained friends list mixed into
    #: the reference list after each poll.
    friend_bias_count: int = 2
    #: Number of reference-list entries a voter nominates in each Vote.
    nominations_per_vote: int = 5
    #: Fraction of nominated identities the poller treats as introductions
    #: rather than outer-circle nominations.
    introduction_fraction: float = 0.4
    #: Cap on outstanding introductions retained per AU.
    max_outstanding_introductions: int = 20
    #: Target size of the reference list; older entries are trimmed beyond it.
    reference_list_target_size: int = 60

    # --- Admission control ---------------------------------------------------
    #: Probability of dropping a poll invitation from an unknown peer.
    drop_probability_unknown: float = 0.90
    #: Probability of dropping a poll invitation from a peer in the debt grade.
    drop_probability_debt: float = 0.80
    #: Refractory period entered after admitting one invitation from an
    #: unknown or in-debt peer (per AU).
    refractory_period: float = units.DAY
    #: Inert: no code reads it, so the reproduction models no invitation
    #: rate limit (the paper's Section 6.3 allows 4x the expected rate).  It
    #: is hashed into ``config_digest``, so changing or removing it moves
    #: every store key; ROADMAP item 18 decides between the two.
    rate_limit_factor: float = 4.0
    #: Master switch for the admission-control filter; disabled only by the
    #: ablation experiments, which then pay full consideration cost for every
    #: garbage invitation.
    admission_control_enabled: bool = True
    #: Interval after which a reputation grade decays one step toward debt.
    grade_decay_interval: float = units.months(6)

    # --- Effort balancing -----------------------------------------------------
    #: Fraction of the poller's total provable effort carried by the Poll
    #: message (introductory effort); the rest rides in PollProof.
    introductory_effort_fraction: float = 0.20
    #: Safety margin by which the poller's provable effort exceeds the
    #: voter's total cost of serving the solicitation.
    effort_balance_margin: float = 0.10
    #: Cost of verifying a proof of effort, as a fraction of the cost of
    #: generating it (memory-bound functions verify cheaply).
    effort_verification_fraction: float = 0.02
    #: Cost (seconds of compute) of establishing/resuming the TLS session and
    #: performing the admission-control bookkeeping for one invitation.
    session_setup_cost: float = 0.05
    #: Cost (seconds of compute) of discarding a rate-limited or randomly
    #: dropped invitation without considering it.
    drop_cost: float = 0.001

    def __post_init__(self) -> None:
        if self.quorum < 1:
            raise ValueError("quorum must be at least 1")
        if not 0.0 <= self.drop_probability_unknown <= 1.0:
            raise ValueError("drop_probability_unknown must be in [0, 1]")
        if not 0.0 <= self.drop_probability_debt <= 1.0:
            raise ValueError("drop_probability_debt must be in [0, 1]")
        if self.inner_circle_factor < 1.0:
            raise ValueError("inner_circle_factor must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if not 0.0 < self.introductory_effort_fraction < 1.0:
            raise ValueError("introductory_effort_fraction must be in (0, 1)")
        if self.solicitation_fraction + self.outer_circle_fraction >= 1.0:
            raise ValueError(
                "solicitation_fraction + outer_circle_fraction must leave room "
                "for the evaluation phase (< 1.0)"
            )

    @property
    def inner_circle_size(self) -> int:
        """Number of inner-circle peers invited at the start of each poll."""
        return int(round(self.quorum * self.inner_circle_factor))

    def with_overrides(self, **kwargs: object) -> "ProtocolConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass
class SimulationConfig:
    """Parameters of the simulated world."""

    # --- Population and collection -------------------------------------------
    #: Number of loyal peers.
    n_peers: int = 100
    #: Number of archival units preserved by every peer.
    n_aus: int = 50
    #: Size of each archival unit in bytes (paper: 0.5 GB).
    au_size: int = units.GB // 2
    #: Size of a content block; votes carry one hash per block and repairs
    #: transfer one block.
    block_size: int = units.MB

    # --- Time ----------------------------------------------------------------
    #: Total simulated duration (paper: 2 years).
    duration: float = units.years(2)
    #: Interval at which the access-failure sampler measures the fraction of
    #: damaged replicas.
    sampling_interval: float = units.days(1)
    #: Warm-up period excluded from metric collection while reference lists
    #: and reputations reach steady state.
    warmup: float = 0.0

    # --- Storage failures -----------------------------------------------------
    #: Mean time between undetected storage failures, expressed in "disk
    #: years" where one disk holds ``aus_per_disk`` AUs (paper: 1-5 years).
    storage_mtbf_disk_years: float = 5.0
    #: Number of AUs per disk used to scale the failure rate to collections
    #: of different sizes (paper: 50).
    aus_per_disk: int = 50
    #: Multiplier applied to the storage failure rate.  The paper-scale rate
    #: (one block per several disk-years over a 100 x 50-600 replica
    #: population) yields too few damage events to measure at laptop scale,
    #: so scaled-down experiments inflate the rate and report both raw and
    #: rate-normalized access failure probabilities (see EXPERIMENTS.md).
    storage_damage_inflation: float = 1.0

    # --- Network ---------------------------------------------------------------
    #: Link bandwidths assigned uniformly at random to peers, in bits/s.
    link_bandwidths: Tuple[float, ...] = (
        units.mbps(1.5),
        units.mbps(10),
        units.mbps(100),
    )
    #: Minimum and maximum one-way link latency in seconds.
    link_latency_range: Tuple[float, float] = (0.001, 0.030)

    # --- Peer hardware cost model ----------------------------------------------
    #: Sustained hashing throughput of a low-cost PC, bytes per second.
    hash_rate: float = 40 * units.MB
    #: Disk read throughput used when producing repairs, bytes per second.
    disk_rate: float = 60 * units.MB

    # --- Bootstrap -------------------------------------------------------------
    #: Number of peers seeded into each peer's initial reference list.
    initial_reference_list_size: int = 30
    #: Number of peers on each peer's operator-maintained friends list.
    friends_list_size: int = 5

    # --- Reproducibility ---------------------------------------------------------
    #: Master seed; every run derives its RNG streams from this.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("need at least two peers")
        if self.n_aus < 1:
            raise ValueError("need at least one AU")
        if self.au_size < self.block_size:
            raise ValueError("au_size must be at least one block")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.storage_mtbf_disk_years <= 0:
            raise ValueError("storage_mtbf_disk_years must be positive")
        if self.storage_damage_inflation < 0:
            raise ValueError("storage_damage_inflation must be non-negative")
        lo, hi = self.link_latency_range
        if lo < 0 or hi < lo:
            raise ValueError("invalid link_latency_range")

    @property
    def blocks_per_au(self) -> int:
        """Number of content blocks in each archival unit."""
        return max(1, self.au_size // self.block_size)

    @property
    def storage_failure_rate_per_peer(self) -> float:
        """Block-damage events per second of simulated time at one peer.

        The paper expresses the failure rate as one damaged block per
        ``storage_mtbf_disk_years`` disk-years with 50 AUs per disk; a peer
        holding ``n_aus`` AUs therefore spans ``n_aus / aus_per_disk`` disks
        and suffers proportionally more failures.
        """
        disks = self.n_aus / float(self.aus_per_disk)
        mtbf_seconds = self.storage_mtbf_disk_years * units.YEAR
        return self.storage_damage_inflation * disks / mtbf_seconds

    def with_overrides(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


def paper_config() -> Tuple[ProtocolConfig, SimulationConfig]:
    """Return the full paper-scale configuration (Section 6.3)."""
    return ProtocolConfig(), SimulationConfig()


def scaled_config(
    n_peers: int = 24,
    n_aus: int = 3,
    duration: float = units.years(1.0),
    seed: int = 1,
    storage_damage_inflation: float = 30.0,
) -> Tuple[ProtocolConfig, SimulationConfig]:
    """Return a laptop-scale configuration exercising the same code paths.

    The population, collection size, AU size, and quorum are scaled down
    together so that the relative structure of the protocol is preserved
    (inner circle is still twice the quorum, the reference list still spans a
    third of the population, the landslide margin is still ~30% of the
    quorum) while a single run completes in seconds.  The storage damage rate
    is inflated (default 30x) so that the small replica population still
    experiences a statistically useful number of damage-and-repair episodes;
    experiment reports divide the measured access failure probability by the
    inflation factor when comparing against the paper's absolute numbers.
    """
    protocol = ProtocolConfig(
        quorum=5,
        max_disagreeing_votes=2,
        outer_circle_size=5,
        reference_list_target_size=max(10, n_peers - 1),
        nominations_per_vote=4,
        friend_bias_count=1,
    )
    sim = SimulationConfig(
        n_peers=n_peers,
        n_aus=n_aus,
        au_size=32 * units.MB,
        block_size=units.MB,
        duration=duration,
        sampling_interval=units.days(1),
        initial_reference_list_size=min(12, n_peers - 1),
        friends_list_size=min(3, n_peers - 1),
        storage_damage_inflation=storage_damage_inflation,
        seed=seed,
    )
    return protocol, sim


def smoke_config(seed: int = 1) -> Tuple[ProtocolConfig, SimulationConfig]:
    """Return a tiny configuration for fast unit and integration tests."""
    protocol = ProtocolConfig(
        quorum=3,
        max_disagreeing_votes=1,
        outer_circle_size=3,
        reference_list_target_size=12,
        nominations_per_vote=3,
        friend_bias_count=1,
    )
    sim = SimulationConfig(
        n_peers=10,
        n_aus=1,
        au_size=8 * units.MB,
        block_size=units.MB,
        duration=units.months(9),
        sampling_interval=units.days(2),
        initial_reference_list_size=8,
        friends_list_size=2,
        storage_damage_inflation=60.0,
        seed=seed,
    )
    return protocol, sim
