"""The generic composed adversary: targeting x schedule x attack vectors.

:class:`ComposedAdversary` replaces per-attack adversary subclasses with one
driver over orthogonal strategy components: a
:class:`~repro.adversary.targeting.TargetingPolicy` chooses each window's
victims, a :class:`~repro.adversary.schedule.Schedule` decides when windows
run and how intensely, any number of
:class:`~repro.adversary.vectors.AttackVector` instances do the attacking,
and an optional :class:`~repro.adversary.adaptive.AdaptivePolicy` decides
which vectors are active per window from the adversary's own observed
outcomes.  The paper's combined and adaptive attackers (Section 6.2) are
just component stacks; the three classic attacks are single-vector stacks.

RNG discipline: in ``shared`` lane mode every component draws from the one
stream the adversary was given — this is how the rewired built-in kinds
replay the legacy monolithic sample paths bit for bit.  In ``per_component``
mode each component draws from its own named child lane
(:meth:`repro.sim.randomness.RandomStreams.lanes`): the targeting policy
from ``targeting``, each vector from ``vector-<kind>`` (a counter suffix
distinguishes same-kind duplicates).  One component consuming more or less
randomness therefore never perturbs the others, and adding/removing/
reordering vectors of *other* kinds never renames — and so never re-seeds —
a vector's lane.  (Duplicates of the same kind are numbered in stack order;
reordering those does reassign their lanes.)
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..crypto.effort import EffortScheme
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.randomness import RandomLanes
from .adaptive import ADAPTIVE_REGISTRY, AdaptivePolicy, AllVectors
from .base import Adversary
from .components import (
    COMPONENT_REGISTRIES,
    SCHEDULE_REGISTRY,
    TARGETING_REGISTRY,
    VECTOR_REGISTRY,
)
from .schedule import OnOffSchedule, Schedule
from .targeting import RandomSubsetTargeting, TargetingPolicy
from .vectors import AttackVector

#: Lane modes for component RNG assignment.
RNG_LANE_MODES = ("shared", "per_component")


class ComposedAdversary(Adversary):
    """An adversary assembled from pluggable strategy components."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        rng: random.Random,
        victims: Sequence,  # Sequence[Peer]; kept loose to avoid an import cycle
        au_ids: Sequence[str],
        protocol_config,
        cost_model,
        end_time: float,
        targeting: Optional[TargetingPolicy] = None,
        schedule: Optional[Schedule] = None,
        vectors: Sequence[AttackVector] = (),
        adaptive: Optional[AdaptivePolicy] = None,
        lanes: Optional[RandomLanes] = None,
        node_id: str = "composed-adversary",
        effort_scheme: Optional[EffortScheme] = None,
    ) -> None:
        super().__init__(node_id, simulator, network, rng, effort_scheme=effort_scheme)
        if not vectors:
            raise ValueError("composed adversary needs at least one attack vector")
        self.victims = list(victims)
        self.population: List[str] = [peer.peer_id for peer in self.victims]
        self._victim_index = {peer.peer_id: peer for peer in self.victims}
        self.au_ids = list(au_ids)
        self.protocol_config = protocol_config
        self.cost_model = cost_model
        self.end_time = end_time
        self.targeting = targeting if targeting is not None else RandomSubsetTargeting()
        self.schedule = schedule if schedule is not None else OnOffSchedule()
        self.vectors: List[AttackVector] = list(vectors)
        self.adaptive = adaptive if adaptive is not None else AllVectors()
        self._targeting_rng = lanes.lane("targeting") if lanes is not None else rng
        # Lanes are named by vector *kind* (with a counter only for same-kind
        # duplicates), so adding, removing, or reordering other kinds never
        # renames — and therefore never re-seeds — this vector's lane.
        kind_counts: Dict[str, int] = {}
        for vector in self.vectors:
            kind = vector.kind or "vector"
            seen = kind_counts.get(kind, 0)
            kind_counts[kind] = seen + 1
            lane_id = "vector-%s" % kind if seen == 0 else (
                "vector-%s-%d" % (kind, seen + 1)
            )
            vector.bind(self, lanes.lane(lane_id) if lanes is not None else rng)

        self.cycles_started = 0
        self.current_victims: List[str] = []
        #: Which vector indices were engaged in each begun window (telemetry
        #: for tests and adaptive-attack inspection).
        self.window_log: List[List[int]] = []
        self._window_index = 0
        self._pending_gap = 0.0
        self._engaged: List[int] = []
        self._last_observed: List[Dict[str, float]] = [
            dict(vector.observed()) for vector in self.vectors
        ]

    # -- conservative-oracle views ---------------------------------------------------------

    def victim_peer(self, peer_id: str):
        """The Peer behind ``peer_id`` (None for unknown ids)."""
        return self._victim_index.get(peer_id)

    def victim_weight(self, peer_id: str) -> float:
        """Damage-aware targeting weight: currently damaged replica count."""
        peer = self._victim_index.get(peer_id)
        if peer is None:
            return 0.0
        return float(peer.replicas.damaged_count())

    # -- lifecycle -------------------------------------------------------------------------

    def install(self, peers: Sequence) -> None:
        for vector in self.vectors:
            vector.install(peers)

    def start(self) -> None:
        if self.schedule.open_ended:
            # Constant schedules engage synchronously (the legacy brute-force
            # event pattern: recurrences only, no begin/end window events).
            self._begin_window()
        else:
            self.simulator.schedule(0.0, self._begin_window)

    def start_forked(self, fork_time: float) -> int:
        """Start mid-timeline as if the adversary had been running since t=0.

        Replays the window bookkeeping an idle (zero-intensity or
        adaptive-suppressed) schedule prefix would have performed —
        ``cycles_started``, ``window_log``, adaptive-policy state, the
        window index — without touching any peer or drawing targeting RNG,
        then schedules the next begin/end event at the exact simulation
        time the uninterrupted run would fire it.  Returns how many
        begin/end events the walk absorbed, so the caller can credit the
        simulator's ``events_processed`` and keep metrics digests
        bit-identical to a full run.

        Raises :class:`ValueError` if the schedule is open-ended (it
        engages at t=0, so there is no idle prefix to skip) or if any
        pre-fork window would actually have engaged vectors — both mean
        the fork point was chosen after the attack onset.
        """
        if self.schedule.open_ended:
            raise ValueError(
                "open-ended schedules engage at t=0 and cannot be fork-started"
            )
        time = 0.0
        skipped = 0
        while True:
            if time >= fork_time:
                # The next begin event is still in the future of the fork
                # point; let it fire in the forked timeline.
                self.simulator.schedule_at(time, self._begin_window)
                return skipped
            if time >= self.end_time:
                # The full run's begin event fired here and bailed.
                return skipped + 1
            window = self.schedule.window(self._window_index)
            if window is None:
                # Non-repeating schedule exhausted: begin fired and bailed.
                return skipped + 1
            skipped += 1  # this begin event fired before the fork point
            self.cycles_started += 1
            selected = self.adaptive.select(
                self._window_index, len(self.vectors), self._observed_deltas()
            )
            window_end = min(time + window.duration, self.end_time)
            if window.intensity > 0 and selected:
                raise ValueError(
                    "adversary window %d engages at t=%g, before the fork "
                    "point t=%g; the fork must branch at or before the "
                    "attack onset" % (self._window_index, time, fork_time)
                )
            self.window_log.append([])
            self._window_index += 1
            self._pending_gap = window.gap
            if window_end >= fork_time:
                # The end event of the window straddling the fork point is
                # still pending; schedule it exactly where the full run did.
                self.simulator.schedule_at(window_end, self._end_window)
                return skipped
            skipped += 1  # the end event also fired before the fork point
            if window_end >= self.end_time:
                # The end event bailed at the horizon without rescheduling.
                return skipped
            time = window_end + window.gap

    # -- window machinery -------------------------------------------------------------------

    def _observed_deltas(self) -> List[Dict[str, float]]:
        """Per-vector counter changes since the last window boundary."""
        deltas: List[Dict[str, float]] = []
        for index, vector in enumerate(self.vectors):
            current = dict(vector.observed())
            previous = self._last_observed[index]
            deltas.append(
                {
                    key: value - previous.get(key, 0.0)
                    for key, value in current.items()
                }
            )
            self._last_observed[index] = current
        return deltas

    def _begin_window(self) -> None:
        now = self.simulator.now
        if now >= self.end_time:
            self._disengage_all()
            return
        window = self.schedule.window(self._window_index)
        if window is None:
            return
        self.cycles_started += 1
        active = self.adaptive.select(
            self._window_index, len(self.vectors), self._observed_deltas()
        )
        window_end = min(now + window.duration, self.end_time)
        if window.intensity > 0 and active:
            victims = self.targeting.pick(
                self._targeting_rng, self.population, self._window_index, self
            )
            self.current_victims = list(victims)
            self._engaged = list(active)
            self.window_log.append(list(active))
            if self.tracer is not None:
                self.tracer.window(
                    now, self.node_id, self._window_index, self._engaged, self.current_victims
                )
            for index in self._engaged:
                self.vectors[index].engage(victims, window_end, window.intensity)
        else:
            self.window_log.append([])
            if self.tracer is not None:
                self.tracer.window(now, self.node_id, self._window_index, [], [])
        self._window_index += 1
        self._pending_gap = window.gap
        if not self.schedule.open_ended:
            self.simulator.schedule_at(window_end, self._end_window)

    def _end_window(self) -> None:
        self._disengage_all()
        if self.simulator.now >= self.end_time:
            return
        self.simulator.schedule(self._pending_gap, self._begin_window)

    def _disengage_all(self) -> None:
        for index in self._engaged:
            self.vectors[index].disengage()
        self._engaged = []
        self.current_victims = []

    # -- feedback ---------------------------------------------------------------------------

    def receive_message(self, message) -> None:
        payload = message.payload
        for vector in self.vectors:
            if vector.on_message(payload):
                return

    # -- aggregated telemetry (legacy attribute compatibility) --------------------------------

    def _vector_sum(self, counter: str) -> float:
        return sum(getattr(vector, counter, 0) for vector in self.vectors)

    @property
    def invitations_sent(self) -> int:
        return int(self._vector_sum("invitations_sent"))

    @property
    def invitations_admitted(self) -> int:
        return int(self._vector_sum("invitations_admitted"))

    @property
    def votes_received(self) -> int:
        return int(self._vector_sum("votes_received"))

    @property
    def oracle_skips(self) -> int:
        return int(self._vector_sum("oracle_skips"))


# -- structured composition specs -------------------------------------------------------

#: Default component specs of the ``"composed"`` registry kind.
DEFAULT_COMPOSED_PARAMS: Dict[str, object] = {
    "targeting": {"kind": "random_subset", "coverage": 1.0},
    "schedule": {"kind": "on_off", "attack_duration_days": 30.0, "recuperation_days": 30.0},
    "vectors": [{"kind": "pipe_stoppage"}],
    "adaptive": None,
    "rng_lanes": "per_component",
    "node_id": "composed-adversary",
}


def _component_specs(params: Dict[str, object]) -> Dict[str, object]:
    """Validate the shape of one structured composition parameter set."""
    vectors = params.get("vectors")
    if not isinstance(vectors, (list, tuple)) or not vectors:
        raise ValueError(
            "composed adversary spec needs a non-empty 'vectors' list, got %r"
            % (vectors,)
        )
    rng_lanes = params.get("rng_lanes", "per_component")
    if rng_lanes not in RNG_LANE_MODES:
        raise ValueError(
            "rng_lanes must be one of %s, got %r" % (RNG_LANE_MODES, rng_lanes)
        )
    return params


def _resolve_component(
    spec: Optional[Dict[str, object]], default: Dict[str, object]
) -> Dict[str, object]:
    """Resolve one component spec against its composition-level default.

    A missing spec is the default; a *partial* spec (no ``kind`` — e.g. the
    product of a campaign axis like ``adversary.targeting.coverage`` applied
    to a spec that omitted the component) merges into the default component,
    so sweeping one parameter never requires spelling the whole component
    out.  A spec that names its kind stands alone.
    """
    if not spec:
        return dict(default)
    if "kind" not in spec:
        merged = dict(default)
        merged.update(spec)
        return merged
    return dict(spec)


def build_composition(params: Dict[str, object]) -> Dict[str, object]:
    """Build the component objects described by one structured spec.

    Returns a dict with ``targeting``, ``schedule``, ``vectors`` (list),
    ``adaptive`` component instances plus the passthrough ``rng_lanes`` and
    ``node_id`` values.  Unknown component kinds and parameters fail fast
    with the registry's error message.
    """
    params = _component_specs(params)
    adaptive_spec = _resolve_component(params.get("adaptive"), {"kind": "all"})
    return {
        "targeting": TARGETING_REGISTRY.build(
            _resolve_component(
                params.get("targeting"), DEFAULT_COMPOSED_PARAMS["targeting"]
            )
        ),
        "schedule": SCHEDULE_REGISTRY.build(
            _resolve_component(
                params.get("schedule"), DEFAULT_COMPOSED_PARAMS["schedule"]
            )
        ),
        "vectors": [VECTOR_REGISTRY.build(spec) for spec in params["vectors"]],
        "adaptive": ADAPTIVE_REGISTRY.build(adaptive_spec),
        "rng_lanes": params.get("rng_lanes", "per_component"),
        "node_id": str(params.get("node_id", "composed-adversary")),
    }


def canonical_composed_params(params: Dict[str, object]) -> Dict[str, object]:
    """Canonicalize a structured spec for content hashing.

    Every component spec gets its registry defaults merged in, the omitted
    adaptive policy becomes the explicit ``{"kind": "all"}`` it runs as, and
    passthrough keys keep their effective values — so two spellings of the
    same composition produce the same scenario digest.
    """
    params = _component_specs(dict(params))
    return {
        "targeting": TARGETING_REGISTRY.canonical(
            _resolve_component(
                params.get("targeting"), DEFAULT_COMPOSED_PARAMS["targeting"]
            )
        ),
        "schedule": SCHEDULE_REGISTRY.canonical(
            _resolve_component(
                params.get("schedule"), DEFAULT_COMPOSED_PARAMS["schedule"]
            )
        ),
        "vectors": [VECTOR_REGISTRY.canonical(spec) for spec in params["vectors"]],
        "adaptive": ADAPTIVE_REGISTRY.canonical(
            _resolve_component(params.get("adaptive"), {"kind": "all"})
        ),
        "rng_lanes": params.get("rng_lanes", "per_component"),
        "node_id": str(params.get("node_id", "composed-adversary")),
    }
