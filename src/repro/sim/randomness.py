"""Deterministic named RNG streams.

Every stochastic subsystem of the simulation (link assignment, storage
failures, protocol sampling decisions, adversary targeting, ...) draws from
its own named stream derived from the master seed.  This keeps experiments
reproducible and — more importantly for the paper's methodology — keeps the
random decisions of one subsystem independent of how often another subsystem
consumes randomness, so that e.g. enabling an adversary does not perturb the
storage-failure sample path of the baseline run it is compared against.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 so that similar names ("peer-1", "peer-11") produce
    unrelated seeds.
    """
    digest = hashlib.sha256(("%d/%s" % (master_seed, name)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, independently-seeded :class:`random.Random` streams."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the RNG stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are independent of this one's."""
        return RandomStreams(derive_seed(self.master_seed, "spawn/" + name))

    def lanes(self, parent: str) -> "RandomLanes":
        """Named per-component child lanes under the stream name ``parent``."""
        return RandomLanes(self, parent)

    def __contains__(self, name: str) -> bool:
        return name in self._streams


class RandomLanes:
    """Deterministic per-component RNG lanes under one parent stream name.

    A *lane* is an ordinary named stream whose name is
    ``"<parent>/<component>"``, so one subsystem built from several pluggable
    components (e.g. a composed adversary's targeting policy, schedule, and
    attack vectors) gives each component its own independent sample path.
    Every lane is a pure function of ``(master_seed, parent, component)``:
    as long as a component keeps its lane *name*, no change to its siblings
    — their count, order, or randomness consumption — perturbs its draws.
    (Callers choose stable names; the composed adversary keys vector lanes
    by kind, not stack position, for exactly this reason.)  This is the
    property that keeps composed attacks digest-reproducible and
    campaign-resumable.
    """

    __slots__ = ("_streams", "parent")

    def __init__(self, streams: RandomStreams, parent: str) -> None:
        self._streams = streams
        self.parent = parent

    def lane(self, component: str) -> random.Random:
        """The RNG lane for ``component`` (memoized by the parent factory)."""
        return self._streams.stream(lane_name(self.parent, component))

    def __contains__(self, component: str) -> bool:
        return lane_name(self.parent, component) in self._streams


def lane_name(parent: str, component: str) -> str:
    """The stream name backing one component lane (``"<parent>/<component>"``)."""
    return "%s/%s" % (parent, component)


def exponential(rng: random.Random, rate: float) -> float:
    """Draw an exponential inter-arrival time for a Poisson process."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return rng.expovariate(rate)


def sample_without_replacement(
    rng: random.Random, population: Sequence[T], k: int
) -> list:
    """Sample ``min(k, len(population))`` distinct items from ``population``."""
    k = min(k, len(population))
    if k <= 0:
        return []
    return rng.sample(list(population), k)


def jittered(rng: random.Random, value: float, fraction: float) -> float:
    """Return ``value`` perturbed uniformly by up to ``±fraction``."""
    if fraction <= 0:
        return value
    return value * (1.0 + rng.uniform(-fraction, fraction))


def poisson_process(
    rng: random.Random, rate: float, start: float, end: float
) -> Iterator[float]:
    """Yield event times of a Poisson process with ``rate`` on [start, end)."""
    t = start
    while True:
        t += exponential(rng, rate)
        if t >= end:
            return
        yield t
