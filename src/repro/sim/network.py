"""Delay-based network model with pipe stoppage.

This reproduces the network model the paper uses in Narses: each peer connects
to the network through a link with a fixed bandwidth (uniformly one of
1.5/10/100 Mbps) and a fixed propagation latency (uniform in 1–30 ms).  The
model accounts for serialization and propagation delay but not congestion —
except for the artificial "congestion" of the pipe-stoppage adversary, which
simply suppresses all communication to and from its victims.

Identities vs. nodes
--------------------
The adversary controls unlimited network identities but only a bounded set of
physical nodes.  The network therefore routes by *identity*: each identity is
registered with the node that answers for it.  Loyal peers have exactly one
identity; the adversary registers as many as its strategy needs, all answered
by the adversary node.

Fast-path notes
---------------
``send``/``_deliver`` are the busiest non-engine functions in every
experiment, so they avoid per-message work: link characteristics are cached
as plain ``(bandwidth, latency)`` tuples beside the :class:`LinkProperties`
objects, per-identity byte counters are pre-seeded at registration so the hot
path is a single ``dict[key] += n``, the common no-blocked-identities case
skips both membership tests, and in-flight messages ride the engine's
fire-and-forget :meth:`~repro.sim.engine.Simulator.post` path (no
:class:`~repro.sim.engine.EventHandle` per delivery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from .. import units
from .engine import Simulator
from .randomness import RandomStreams


@dataclass(slots=True)
class Message:
    """A protocol message in flight.

    ``payload`` is the protocol-level message object (one of the dataclasses
    in :mod:`repro.core.messages` or an adversary-crafted object); the network
    only looks at ``size_bytes``.
    """

    sender: str
    recipient: str
    payload: Any
    size_bytes: int
    sent_at: float = 0.0


@dataclass(frozen=True)
class LinkProperties:
    """Per-identity access-link characteristics.

    Frozen: ``send`` reads the characteristics from a tuple cache built at
    registration, so a mutable link object would silently stop influencing
    deliveries.  Register a new identity (or network) to change a link.
    """

    bandwidth_bps: float
    latency: float


@dataclass
class NetworkStats:
    """Aggregate traffic accounting, used by tests and experiment reports.

    The per-identity maps carry an entry for every registered identity (zero
    until it first communicates), which keeps the per-message accounting to a
    single in-place increment.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_blocked: int = 0
    messages_dropped_unknown: int = 0
    messages_dropped_partition: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    per_identity_bytes_sent: Dict[str, int] = field(default_factory=dict)
    per_identity_bytes_received: Dict[str, int] = field(default_factory=dict)


class Node:
    """Base class for anything attached to the network.

    Subclasses (loyal peers, adversary nodes) override :meth:`receive_message`.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id

    def receive_message(self, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%r)" % (type(self).__name__, self.node_id)


class Network:
    """Routes messages between identities with serialization + propagation delay."""

    def __init__(
        self,
        simulator: Simulator,
        streams: RandomStreams,
        bandwidth_choices: Tuple[float, ...] = (
            units.mbps(1.5),
            units.mbps(10),
            units.mbps(100),
        ),
        latency_range: Tuple[float, float] = (0.001, 0.030),
    ) -> None:
        self.simulator = simulator
        self._rng = streams.stream("network")
        self._bandwidth_choices = bandwidth_choices
        self._latency_range = latency_range
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, LinkProperties] = {}
        #: Hot-path mirror of ``_links``: identity -> (bandwidth, latency).
        self._link_params: Dict[str, Tuple[float, float]] = {}
        self._blocked: Set[str] = set()
        #: Active partition: identity -> group id; identities outside the
        #: mapping form group 0.  None (the common case) costs one load +
        #: branch per send/delivery.
        self._partition: Optional[Dict[str, int]] = None
        #: Original (LinkProperties, params tuple) of degraded identities,
        #: restored by :meth:`restore_link`.
        self._degraded: Dict[str, Tuple[LinkProperties, Tuple[float, float]]] = {}
        self.stats = NetworkStats()
        #: Optional hook called for every delivered message; used by tests
        #: and by traffic-tracing examples.
        self.delivery_hook: Optional[Callable[[Message], None]] = None
        #: Replay tap (see :mod:`repro.replay`); None keeps the send hot
        #: path at one attribute load + branch per message.
        self.tracer = None

    # -- registration ------------------------------------------------------------

    def register(self, node: Node, link: Optional[LinkProperties] = None) -> LinkProperties:
        """Attach ``node`` under its own ``node_id`` identity."""
        return self.register_identity(node.node_id, node, link)

    def register_identity(
        self, identity: str, node: Node, link: Optional[LinkProperties] = None
    ) -> LinkProperties:
        """Attach ``identity`` answered by ``node``; assign link properties.

        Identities registered by the same node share that node's link unless
        an explicit ``link`` is supplied (the adversary's identities all ride
        its own, well-provisioned link).
        """
        if identity in self._nodes:
            raise ValueError("identity %r already registered" % identity)
        if link is None:
            existing = self._links.get(node.node_id)
            if existing is not None and node.node_id != identity:
                link = existing
            else:
                link = LinkProperties(
                    bandwidth_bps=self._rng.choice(self._bandwidth_choices),
                    latency=self._rng.uniform(*self._latency_range),
                )
        self._nodes[identity] = node
        self._links[identity] = link
        self._link_params[identity] = (link.bandwidth_bps, link.latency)
        self.stats.per_identity_bytes_sent.setdefault(identity, 0)
        self.stats.per_identity_bytes_received.setdefault(identity, 0)
        return link

    def is_registered(self, identity: str) -> bool:
        return identity in self._nodes

    def node_for(self, identity: str) -> Optional[Node]:
        return self._nodes.get(identity)

    def link_for(self, identity: str) -> Optional[LinkProperties]:
        return self._links.get(identity)

    # -- pipe stoppage --------------------------------------------------------------

    def block(self, identity: str) -> None:
        """Suppress all communication to and from ``identity`` (pipe stoppage)."""
        self._blocked.add(identity)

    def unblock(self, identity: str) -> None:
        """Restore communication for ``identity``."""
        self._blocked.discard(identity)

    def is_blocked(self, identity: str) -> bool:
        return identity in self._blocked

    def blocked_identities(self) -> Set[str]:
        return set(self._blocked)

    # -- partitions and degraded links ----------------------------------------------

    def set_partition(self, groups: Dict[str, int]) -> None:
        """Impose a partition: identities in different groups cannot talk.

        ``groups`` maps identities to group ids; unmapped identities form
        group 0, so a partition is usually expressed by mapping only the
        minority group.  Messages crossing group boundaries are dropped both
        at send time and — for messages already in flight when the partition
        began — at delivery time.  Replaces any previous partition.
        """
        self._partition = dict(groups) if groups else None

    def clear_partition(self) -> None:
        """Restore full reachability."""
        self._partition = None

    def is_partitioned(self) -> bool:
        return self._partition is not None

    def degrade_link(
        self, identity: str, bandwidth_factor: float = 1.0, latency_factor: float = 1.0
    ) -> LinkProperties:
        """Override ``identity``'s link with scaled bandwidth and latency.

        Factors apply to the identity's *original* link (repeated calls do
        not compound); :meth:`restore_link` undoes the override.
        """
        original_link = self._links.get(identity)
        if original_link is None:
            raise ValueError("unknown identity %r" % identity)
        if identity not in self._degraded:
            self._degraded[identity] = (original_link, self._link_params[identity])
        else:
            original_link = self._degraded[identity][0]
        degraded = LinkProperties(
            bandwidth_bps=original_link.bandwidth_bps * bandwidth_factor,
            latency=original_link.latency * latency_factor,
        )
        self._links[identity] = degraded
        self._link_params[identity] = (degraded.bandwidth_bps, degraded.latency)
        return degraded

    def restore_link(self, identity: str) -> None:
        """Undo :meth:`degrade_link` for ``identity`` (no-op if not degraded)."""
        saved = self._degraded.pop(identity, None)
        if saved is None:
            return
        self._links[identity], self._link_params[identity] = saved

    # -- sending ---------------------------------------------------------------------

    def send(self, sender: str, recipient: str, payload: Any, size_bytes: int) -> bool:
        """Send ``payload`` from ``sender`` to ``recipient``.

        Returns True if the message was put on the wire (it may still be lost
        to pipe stoppage at the recipient's side), False if it was dropped
        immediately because the sender is unknown or blocked.  Delivery is
        silent-failure, matching the UDP-like "no error signal" behaviour the
        protocol is designed around: peers rely on their own timeouts.
        """
        link_params = self._link_params
        src = link_params.get(sender)
        if src is None:
            raise ValueError("unknown sender identity %r" % sender)
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")

        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        stats.per_identity_bytes_sent[sender] += size_bytes
        tracer = self.tracer
        if tracer is not None:
            # Inlined "send" record build (grammar: repro.replay.trace) —
            # this is the busiest tap, so Tracer has no method hop for it.
            tracer.sink(
                ["send", self.simulator._now, sender, recipient,
                 type(payload).__name__, size_bytes]
            )

        dst = link_params.get(recipient)
        if dst is None:
            stats.messages_dropped_unknown += 1
            return False
        blocked = self._blocked
        if blocked and (sender in blocked or recipient in blocked):
            stats.messages_dropped_blocked += 1
            return False
        partition = self._partition
        if partition is not None and partition.get(sender, 0) != partition.get(recipient, 0):
            stats.messages_dropped_partition += 1
            return False

        src_bandwidth, src_latency = src
        dst_bandwidth, dst_latency = dst
        bottleneck = src_bandwidth if src_bandwidth < dst_bandwidth else dst_bandwidth
        delay = src_latency + dst_latency + size_bytes * 8.0 / bottleneck
        message = Message(
            sender=sender,
            recipient=recipient,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=self.simulator._now,
        )
        self.simulator.post(delay, self._deliver, message)
        return True

    # -- delivery ---------------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        # Pipe stoppage that began while the message was in flight also
        # suppresses it: the adversary floods the victim's link continuously.
        blocked = self._blocked
        if blocked and (message.sender in blocked or message.recipient in blocked):
            self.stats.messages_dropped_blocked += 1
            return
        # Likewise a partition that began mid-flight: the groups were
        # unreachable at delivery time, so the message is lost.
        partition = self._partition
        if partition is not None and partition.get(message.sender, 0) != partition.get(
            message.recipient, 0
        ):
            self.stats.messages_dropped_partition += 1
            return
        node = self._nodes.get(message.recipient)
        if node is None:
            self.stats.messages_dropped_unknown += 1
            return
        stats = self.stats
        stats.messages_delivered += 1
        size_bytes = message.size_bytes
        stats.bytes_delivered += size_bytes
        stats.per_identity_bytes_received[message.recipient] += size_bytes
        if self.delivery_hook is not None:
            self.delivery_hook(message)
        node.receive_message(message)
