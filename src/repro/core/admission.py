"""Admission control filter for inbound poll invitations.

The admission control defense ensures a peer controls the rate at which it
*considers* poll invitations, favoring peers that operate at roughly its own
rate and penalizing unknown or in-debt peers (Section 5.1).  The filter
combines:

* **first-hand reputation** — invitations from peers with an even or credit
  grade are admitted (at most once per refractory-period-length window per
  peer, which is what bounds the total consideration rate);
* **random drops** — invitations from unknown peers and from peers in the
  debt grade are dropped with high fixed probability (0.90 / 0.80);
* **refractory period** — after one unknown/in-debt invitation is admitted,
  all further unknown/in-debt invitations are rejected for a full refractory
  period (one day);
* **introductions** — peers vouched for by a recent valid voter bypass random
  drops and refractory periods exactly once.

Every decision is returned together with the bookkeeping cost the peer paid
to make it, so the caller can charge the effort account appropriately (a
rejected invitation must cost almost nothing, an admitted one costs the
session setup).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import ProtocolConfig
from .reputation import Grade, IntroductionTable, KnownPeers, RefractoryState


class AdmissionDecision(enum.Enum):
    """Outcome of considering one poll invitation."""

    ADMITTED = "admitted"
    ADMITTED_INTRODUCED = "admitted_introduced"
    DROPPED_REFRACTORY = "dropped_refractory"
    DROPPED_RANDOM = "dropped_random"
    DROPPED_RATE_LIMITED = "dropped_rate_limited"

    @property
    def admitted(self) -> bool:
        return (
            self is AdmissionDecision.ADMITTED
            or self is AdmissionDecision.ADMITTED_INTRODUCED
        )


@dataclass(slots=True)
class AdmissionResult:
    """Decision plus the effort the peer spent reaching it."""

    decision: AdmissionDecision
    cost: float
    grade: Optional[Grade]
    refractory_triggered: bool = False
    introduction_consumed: bool = False
    #: Mirror of ``decision.admitted`` as a plain attribute for the hot
    #: path; always derived in ``__post_init__`` so no construction site can
    #: set it inconsistently.
    admitted: bool = False

    def __post_init__(self) -> None:
        self.admitted = self.decision.admitted


@dataclass
class AdmissionStats:
    """Counters for tests, metrics, and the admission-attack experiments."""

    considered: int = 0
    admitted: int = 0
    admitted_introduced: int = 0
    dropped_refractory: int = 0
    dropped_random: int = 0
    dropped_rate_limited: int = 0


class AdmissionControl:
    """Per-AU admission control state for one peer."""

    def __init__(
        self,
        config: ProtocolConfig,
        known_peers: KnownPeers,
        introductions: IntroductionTable,
        rng: random.Random,
        enabled: bool = True,
    ) -> None:
        self.config = config
        self.known_peers = known_peers
        self.introductions = introductions
        self.refractory = RefractoryState(config.refractory_period)
        self.rng = rng
        self.stats = AdmissionStats()
        #: Last time an invitation from each known (even/credit) peer was
        #: admitted; enforces "at most one invitation per refractory period
        #: per fellow peer", which bounds the total consideration rate.
        self._last_admission: Dict[str, float] = {}
        #: When False, every invitation is admitted (ablation experiments).
        self.enabled = enabled
        #: Shared AdmissionResult instances keyed by (decision, grade,
        #: refractory_triggered) — every other field is derived from the
        #: decision, so the same immutable-by-convention result can be
        #: returned for every equivalent outcome instead of allocating one
        #: per considered invitation (the flood hot path).
        self._result_cache: Dict[tuple, AdmissionResult] = {}

    def _result(
        self,
        decision: AdmissionDecision,
        grade: Optional[Grade],
        refractory_triggered: bool = False,
    ) -> AdmissionResult:
        """The shared result instance for one (decision, grade, flag) outcome.

        Every other field is derived here from the decision and the
        (immutable) config — cost, ``introduction_consumed``, ``admitted`` —
        so a cached instance can never go stale against its key.
        """
        key = (decision, grade, refractory_triggered)
        result = self._result_cache.get(key)
        if result is None:
            cfg = self.config
            result = AdmissionResult(
                decision=decision,
                cost=cfg.session_setup_cost if decision.admitted else cfg.drop_cost,
                grade=grade,
                refractory_triggered=refractory_triggered,
                introduction_consumed=decision is AdmissionDecision.ADMITTED_INTRODUCED,
            )
            self._result_cache[key] = result
        return result

    def consider(self, poller_id: str, now: float) -> AdmissionResult:
        """Decide whether to consider the invitation from ``poller_id``.

        The caller is responsible for charging ``result.cost`` to the peer's
        effort account and for subsequently verifying the introductory effort
        of admitted invitations.

        This is the single hottest protocol decision under flood attacks, so
        the stats counters are bumped inline at each branch (each branch
        knows its own outcome), and equivalent outcomes return a shared
        result instance via :meth:`_result`.
        """
        cfg = self.config
        stats = self.stats
        stats.considered += 1
        if not self.enabled:
            stats.admitted += 1
            return self._result(
                AdmissionDecision.ADMITTED,
                self.known_peers.grade_of(poller_id, now),
            )

        grade = self.known_peers.grade_of(poller_id, now)

        # Introductions bypass random drops and refractory periods: the
        # invitation is treated as if it came from a known peer with an even
        # grade, and the introduction is consumed.
        if self.introductions.has_introduction(poller_id):
            self.introductions.consume(poller_id)
            self.known_peers.ensure_known(poller_id, now, Grade.EVEN)
            self._last_admission[poller_id] = now
            stats.admitted_introduced += 1
            return self._result(AdmissionDecision.ADMITTED_INTRODUCED, Grade.EVEN)

        if grade is Grade.EVEN or grade is Grade.CREDIT:
            # At most one invitation per refractory-period-length window per
            # fellow even/credit peer; more frequent invitations are not
            # considered legitimate and are dropped cheaply.
            last = self._last_admission.get(poller_id)
            if last is not None and now - last < cfg.refractory_period:
                stats.dropped_rate_limited += 1
                return self._result(AdmissionDecision.DROPPED_RATE_LIMITED, grade)
            self._last_admission[poller_id] = now
            stats.admitted += 1
            return self._result(AdmissionDecision.ADMITTED, grade)

        # Unknown or in-debt poller.
        if self.refractory.in_refractory(now):
            stats.dropped_refractory += 1
            return self._result(AdmissionDecision.DROPPED_REFRACTORY, grade)

        drop_probability = (
            cfg.drop_probability_debt if grade is Grade.DEBT else cfg.drop_probability_unknown
        )
        if self.rng.random() < drop_probability:
            stats.dropped_random += 1
            return self._result(AdmissionDecision.DROPPED_RANDOM, grade)

        # Admit one unknown/in-debt invitation and enter the refractory period.
        self.refractory.trigger(now)
        stats.admitted += 1
        return self._result(AdmissionDecision.ADMITTED, grade, refractory_triggered=True)
