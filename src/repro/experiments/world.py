"""Construction and execution of one simulated world.

A :class:`World` bundles everything one simulation run needs: the event
engine, the network, the loyal peer population with bootstrapped reference
lists, the storage-failure injector, the metric samplers, and (optionally) an
adversary produced by a caller-supplied factory.  Worlds are deterministic
functions of their configuration, including the master seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..config import ProtocolConfig, SimulationConfig
from ..crypto.effort import EffortAccount, EffortScheme
from ..crypto.hashing import HashCostModel
from ..metrics.access import AccessFailureSampler
from ..metrics.polls import PollStatistics
from ..metrics.report import RunMetrics
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.randomness import RandomStreams
from ..storage.au import ArchivalUnit
from ..storage.failure import StorageFailureModel
from ..core.peer import Peer

#: Signature of an adversary factory: receives the fully built world and
#: returns an adversary (anything with install/start/stop and an ``effort``
#: account), or None for a baseline run.
AdversaryFactory = Callable[["World"], object]

#: Events per slice when a deadline, but no control, bounds a run
#: (:class:`~repro.telemetry.stream.RunControl`'s default slice).
SLICE_EVENTS = 4096


def deadline_after(timeout: Optional[float]) -> Optional[float]:
    """The :meth:`World.advance` deadline ``timeout`` seconds from now (None: none)."""
    return None if timeout is None else time.monotonic() + timeout


@dataclass
class World:
    """One fully wired simulation run."""

    protocol_config: ProtocolConfig
    sim_config: SimulationConfig
    simulator: Simulator
    streams: RandomStreams
    network: Network
    cost_model: HashCostModel
    effort_scheme: EffortScheme
    aus: List[ArchivalUnit]
    peers: List[Peer]
    collector: PollStatistics
    sampler: AccessFailureSampler
    failure_model: StorageFailureModel
    adversary: Optional[object] = None
    fault_engine: Optional[object] = None
    started: bool = False
    completed: bool = False
    _peer_index: Dict[str, Peer] = field(default_factory=dict, repr=False)

    # -- convenience accessors ---------------------------------------------------------

    def peer_ids(self) -> List[str]:
        return [peer.peer_id for peer in self.peers]

    def peer_by_id(self, peer_id: str) -> Peer:
        # O(1) dict lookup; the index rebuilds on a size change or an unknown
        # id, so additions, removals, and lookups of newly replaced peers
        # resolve correctly.  (Looking up an id that was just replaced
        # *away* may serve the old object until any rebuild trigger fires —
        # acceptable for the sim harness, where peers are never swapped
        # in place.)
        if len(self._peer_index) != len(self.peers) or peer_id not in self._peer_index:
            self._peer_index = {peer.peer_id: peer for peer in self.peers}
        return self._peer_index[peer_id]

    def loyal_effort(self) -> EffortAccount:
        """Combined effort account of the loyal population."""
        combined = EffortAccount()
        for peer in self.peers:
            combined.merge(peer.effort)
        return combined

    def adversary_effort(self) -> float:
        if self.adversary is None:
            return 0.0
        return getattr(self.adversary, "effort").total

    # -- execution -----------------------------------------------------------------------

    def start(self) -> None:
        """Start peers, samplers, failure injection, and the adversary."""
        if self.started:
            raise RuntimeError("world already started")
        self.started = True
        for peer in self.peers:
            peer.start()
        for peer in self.peers:
            self.failure_model.register_peer(peer)
        self.sampler.start()
        if self.adversary is not None:
            self.adversary.install(self.peers)
            self.adversary.start()
        if self.fault_engine is not None:
            self.fault_engine.start()

    def run(
        self,
        until: Optional[float] = None,
        control: Optional[object] = None,
        deadline: Optional[float] = None,
    ) -> RunMetrics:
        """Run the world to ``until`` (default: the configured duration).

        ``control`` and ``deadline`` are :meth:`advance`'s; neither
        changes the metrics of a run that finishes.
        """
        if not self.started:
            self.start()
        horizon = self.sim_config.duration if until is None else until
        self.advance(horizon, control=control, deadline=deadline)
        self.completed = True
        return self.metrics(observation_window=horizon)

    def advance(
        self,
        horizon: float,
        control: Optional[object] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Process events up to ``horizon``: where a run is steered or stopped.

        ``control`` (a :class:`~repro.telemetry.stream.RunControl`, or any
        object with a ``gate() -> int`` method) is asked for each event
        slice's size, which is how pause/step take effect.  ``deadline`` is
        a :func:`time.monotonic` instant (see :func:`deadline_after`);
        once the gate has returned past it, the run raises
        :class:`TimeoutError` before its next slice, so time spent paused
        counts against the budget.  With neither, the uncontrolled hot
        loop runs the whole horizon; either way events process in the
        identical order, so a run that finishes has bit-identical metrics.
        """
        simulator = self.simulator
        if control is None and deadline is None:
            simulator.run(until=horizon)
            return
        while True:
            events = SLICE_EVENTS if control is None else control.gate()
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    "exceeded its wall-clock time budget at simulated t=%.0fs"
                    % simulator.now
                )
            if simulator.run_slice(horizon, events):
                return

    def metrics(self, observation_window: Optional[float] = None) -> RunMetrics:
        """Summarize the run so far into :class:`RunMetrics`."""
        window = (
            observation_window
            if observation_window is not None
            else max(self.simulator.now, self.sim_config.sampling_interval)
        )
        loyal = self.loyal_effort()
        extras: Dict[str, float] = {
            "events_processed": float(self.simulator.events_processed),
            "storage_failures": float(self.failure_model.events_injected),
            "alarms": float(sum(peer.alarms for peer in self.peers)),
            "max_damage_fraction": self.sampler.max_fraction(),
            "invitations_sent": float(self.collector.invitations_sent),
            "invitations_accepted": float(self.collector.invitations_accepted),
            "invitations_refused": float(self.collector.invitations_refused),
            "repairs_applied": float(self.collector.repairs_applied),
        }
        if self.fault_engine is not None:
            extras.update(self.fault_engine.metrics_extras(self.simulator.now))
        return RunMetrics(
            access_failure_probability=self.sampler.access_failure_probability,
            mean_time_between_successful_polls=(
                self.collector.mean_time_between_successful_polls(window)
            ),
            successful_polls=self.collector.successful_polls,
            failed_polls=self.collector.failed_polls,
            inconclusive_polls=self.collector.inconclusive_polls,
            loyal_effort=loyal.total,
            adversary_effort=self.adversary_effort(),
            observation_window=window,
            extras=extras,
        )


def build_world(
    protocol_config: ProtocolConfig,
    sim_config: SimulationConfig,
    adversary_factory: Optional[AdversaryFactory] = None,
    keep_poll_records: bool = False,
    fault_plan: Optional[object] = None,
) -> World:
    """Build a deterministic simulated world from configuration.

    The adversary factory (if any) is called last, once the loyal population
    exists, so it can size its attack against the actual peers and AUs.
    ``fault_plan`` (a :class:`~repro.faults.FaultPlan` or its dict form)
    attaches a fault-injection engine; an inactive plan attaches nothing, so
    ``faults={}`` worlds are bit-identical to fault-free ones.
    """
    simulator = Simulator()
    streams = RandomStreams(sim_config.seed)
    network = Network(
        simulator,
        streams,
        bandwidth_choices=tuple(sim_config.link_bandwidths),
        latency_range=sim_config.link_latency_range,
    )
    cost_model = HashCostModel(
        hash_rate=sim_config.hash_rate, disk_rate=sim_config.disk_rate
    )
    effort_scheme = EffortScheme(
        verification_fraction=protocol_config.effort_verification_fraction
    )
    collector = PollStatistics(keep_records=keep_poll_records)

    aus = [
        ArchivalUnit(
            au_id="au-%04d" % index,
            size_bytes=sim_config.au_size,
            block_size=sim_config.block_size,
        )
        for index in range(sim_config.n_aus)
    ]

    peers: List[Peer] = []
    for index in range(sim_config.n_peers):
        peer_id = "peer-%04d" % index
        peer = Peer(
            peer_id=peer_id,
            simulator=simulator,
            network=network,
            config=protocol_config,
            cost_model=cost_model,
            effort_scheme=effort_scheme,
            rng=streams.stream("peer/" + peer_id),
            collector=collector,
        )
        network.register(peer)
        peers.append(peer)

    bootstrap_rng = streams.stream("bootstrap")
    peer_ids = [peer.peer_id for peer in peers]
    for peer in peers:
        others = [pid for pid in peer_ids if pid != peer.peer_id]
        friends = bootstrap_rng.sample(
            others, min(sim_config.friends_list_size, len(others))
        )
        for au in aus:
            initial = bootstrap_rng.sample(
                others, min(sim_config.initial_reference_list_size, len(others))
            )
            peer.add_au(au, friends=friends, initial_reference_list=initial)

    failure_model = StorageFailureModel(
        simulator=simulator,
        rng=streams.stream("storage"),
        rate_per_peer=sim_config.storage_failure_rate_per_peer,
        end_time=sim_config.duration,
    )
    sampler = AccessFailureSampler(
        simulator=simulator,
        peers=peers,
        interval=sim_config.sampling_interval,
        end_time=sim_config.duration,
        start_time=sim_config.warmup,
    )

    world = World(
        protocol_config=protocol_config,
        sim_config=sim_config,
        simulator=simulator,
        streams=streams,
        network=network,
        cost_model=cost_model,
        effort_scheme=effort_scheme,
        aus=aus,
        peers=peers,
        collector=collector,
        sampler=sampler,
        failure_model=failure_model,
    )
    if adversary_factory is not None:
        world.adversary = adversary_factory(world)
    if fault_plan:
        from ..faults import FaultEngine, FaultPlan

        plan = fault_plan if isinstance(fault_plan, FaultPlan) else FaultPlan.from_dict(fault_plan)
        if plan.is_active():
            world.fault_engine = FaultEngine(world, plan)
    return world
