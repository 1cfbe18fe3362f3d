"""Proofs of computational effort (memory-bound functions).

The paper prices protocol steps with Memory-Bound Function (MBF) proofs of
effort [Dwork et al. 2003]: the requester of a service attaches a proof whose
*generation* cost exceeds the supplier's cost of verifying it plus serving the
request.  MBF generation conveniently yields 160 bits of unforgeable
byproduct, which the protocol reuses as the evaluation receipt that proves a
poller actually evaluated a vote.

Two layers are provided:

* :class:`EffortProof` / :class:`EffortScheme` — the *cost-model* layer used
  by the simulation.  A proof carries a declared generation cost (seconds of
  compute on the reference PC); generating it charges the producer's effort
  account and schedule, verifying it charges a small fraction of that cost.
  Whether a proof is *valid* is an explicit attribute, because the simulated
  adversary may choose to send garbage "proofs" that cost it nothing and are
  detected (cheaply) by the verifier.

* :class:`MemoryBoundFunction` — a small, real, self-contained MBF-style
  puzzle (random walks over an incompressible table) usable in unit tests and
  examples to demonstrate the actual mechanism end to end.  It is **not**
  used inside the large-scale experiments, where only the cost model matters.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(slots=True)
class EffortProof:
    """A (possibly bogus) proof of computational effort.

    Slotted-mutable for construction speed (one proof per protocol message);
    immutable by convention once minted.

    Attributes:
        claimed_cost: seconds of compute the proof claims to embody.
        valid: whether the proof would verify; loyal peers always produce
            valid proofs, adversaries may send garbage at zero cost.
        byproduct: the unforgeable byproduct of generation, reused by the
            protocol as an evaluation receipt.
        producer: identity that generated the proof (for accounting).
    """

    claimed_cost: float
    valid: bool
    byproduct: bytes
    producer: str

    def __post_init__(self) -> None:
        if self.claimed_cost < 0:
            raise ValueError("claimed_cost must be non-negative")


def verification_cost(proof_cost: float, fraction: float = 0.02) -> float:
    """Cost of verifying a proof whose generation cost was ``proof_cost``.

    MBFs verify much more cheaply than they generate; the default 2% follows
    the spirit of the Dwork et al. construction without modeling cache
    behaviour in detail.
    """
    if proof_cost < 0:
        raise ValueError("proof_cost must be non-negative")
    return proof_cost * fraction


class EffortScheme:
    """Cost-model factory for effort proofs, with per-identity accounting."""

    def __init__(self, verification_fraction: float = 0.02) -> None:
        if not 0.0 < verification_fraction < 1.0:
            raise ValueError("verification_fraction must be in (0, 1)")
        self.verification_fraction = verification_fraction
        self._counter = itertools.count()

    def generate(self, producer: str, cost: float) -> EffortProof:
        """Produce a valid proof embodying ``cost`` seconds of effort.

        The *caller* is responsible for charging ``cost`` to the producer's
        effort account and schedule; the scheme only mints the token.  The
        byproduct is derived deterministically from the producer and a
        counter so receipts are unforgeable-by-construction inside the
        simulation (no other party can guess them ahead of time).
        """
        seed = b"%s/%d/%f" % (producer.encode("utf-8"), next(self._counter), cost)
        byproduct = hashlib.sha1(seed).digest()
        return EffortProof(claimed_cost=cost, valid=True, byproduct=byproduct, producer=producer)

    def forge(self, producer: str, claimed_cost: float) -> EffortProof:
        """Produce a *bogus* proof claiming ``claimed_cost`` at zero real cost.

        Used by adversaries mounting effortless attacks: the proof fails
        verification, but the victim still pays the verification cost to
        discover that.
        """
        seed = ("forged/%s/%d" % (producer, next(self._counter))).encode("utf-8")
        byproduct = hashlib.sha1(seed).digest()
        return EffortProof(
            claimed_cost=claimed_cost, valid=False, byproduct=byproduct, producer=producer
        )

    def verification_cost(self, proof: EffortProof) -> float:
        """Seconds of compute needed to verify (or reject) ``proof``."""
        return verification_cost(proof.claimed_cost, self.verification_fraction)

    def verify(self, proof: Optional[EffortProof], expected_cost: float) -> bool:
        """Check that ``proof`` is valid and embodies at least ``expected_cost``."""
        if proof is None:
            return False
        return proof.valid and proof.claimed_cost + 1e-9 >= expected_cost


def charge_account(account: "EffortAccount", category: str, amount: float) -> None:
    """Add ``amount`` seconds of effort to ``account`` under ``category``.

    The single implementation of effort accounting.  Hot paths (peers,
    adversaries) call this module-level function directly instead of the
    bound :meth:`EffortAccount.charge`, which simply delegates here.
    """
    if amount < 0:
        raise ValueError("cannot charge negative effort")
    account.total += amount
    by_category = account.by_category
    by_category[category] = by_category.get(category, 0.0) + amount


@dataclass
class EffortAccount:
    """Cumulative effort expenditure of one principal, by category.

    Categories used by the protocol: ``hash`` (AU/block hashing), ``proof``
    (effort-proof generation), ``verify`` (effort-proof verification),
    ``session`` (admission-control consideration and TLS bookkeeping),
    ``repair`` (reading and shipping repair blocks), ``drop`` (discarding
    rate-limited traffic).
    """

    total: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, amount: float) -> None:
        """Add ``amount`` seconds of effort under ``category``."""
        charge_account(self, category, amount)

    def category(self, name: str) -> float:
        """Total effort charged under ``name``."""
        return self.by_category.get(name, 0.0)

    def merge(self, other: "EffortAccount") -> None:
        """Fold another account into this one (used for population totals)."""
        self.total += other.total
        for name, amount in other.by_category.items():
            self.by_category[name] = self.by_category.get(name, 0.0) + amount


class MemoryBoundFunction:
    """A small real memory-bound puzzle for unit tests and demonstrations.

    The prover performs ``iterations`` pseudo-random walks over an
    incompressible table derived from the challenge, and returns the indices
    visited at the end of each walk together with a digest binding them to
    the challenge.  The verifier replays a random subset of walks.  The point
    is not cryptographic strength but an executable illustration of the
    generate-expensively / verify-cheaply asymmetry the cost model assumes.
    """

    def __init__(self, table_size: int = 4096, walk_length: int = 64) -> None:
        if table_size < 2 or walk_length < 1:
            raise ValueError("table_size must be >= 2 and walk_length >= 1")
        self.table_size = table_size
        self.walk_length = walk_length

    def _table(self, challenge: bytes) -> list:
        rng = random.Random(int.from_bytes(hashlib.sha256(challenge).digest()[:8], "big"))
        return [rng.randrange(self.table_size) for _ in range(self.table_size)]

    def _walk(self, table: list, start: int) -> int:
        position = start % self.table_size
        for _ in range(self.walk_length):
            position = table[position]
        return position

    def prove(self, challenge: bytes, iterations: int) -> dict:
        """Perform ``iterations`` walks; return endpoints and a binding digest."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        table = self._table(challenge)
        endpoints = [self._walk(table, start) for start in range(iterations)]
        binding = hashlib.sha256(
            challenge + b"|" + b",".join(str(e).encode() for e in endpoints)
        ).digest()
        return {"iterations": iterations, "endpoints": endpoints, "binding": binding}

    def verify(self, challenge: bytes, proof: dict) -> bool:
        """Spot-check ``proof`` by replaying four walks and the binding digest."""
        endpoints = proof.get("endpoints")
        iterations = proof.get("iterations")
        binding = proof.get("binding")
        if not isinstance(endpoints, list) or not isinstance(iterations, int):
            return False
        if iterations < 1 or len(endpoints) != iterations:
            return False
        expected_binding = hashlib.sha256(
            challenge + b"|" + b",".join(str(e).encode() for e in endpoints)
        ).digest()
        if binding != expected_binding:
            return False
        table = self._table(challenge)
        rng = random.Random(int.from_bytes(expected_binding[:8], "big"))
        checks = min(4, iterations)
        for start in rng.sample(range(iterations), checks):
            if self._walk(table, start) != endpoints[start]:
                return False
        return True
