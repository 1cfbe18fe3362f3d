"""String-keyed adversary registry.

Every attack strategy is registered under a stable name (``"pipe_stoppage"``,
``"admission_flood"``, ``"brute_force"``) together with its JSON-level
parameter defaults.  A :class:`~repro.api.scenario.Scenario` names an
adversary by kind; the registry turns that spec into the world-factory the
simulation expects.  User code adds strategies with the :func:`adversary`
decorator:

    from repro.api import adversary

    @adversary("my_attack", defaults={"rate": 1.0})
    def build_my_attack(world, *, rate):
        return MyAdversary(..., rate=rate)

Registered builders receive the fully built :class:`~repro.experiments.world.World`
plus their keyword parameters (defaults merged with the scenario's).  All
durations are expressed in **days** at this level so scenario JSON stays
human-readable; builders convert to simulation seconds.

Note for parallel sessions: worker processes import this module fresh, so a
custom adversary must be registered at import time of an importable module
(not interactively in ``__main__``) to be usable with ``workers > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..adversary.brute_force import DefectionPoint
from ..adversary.composed import (
    ComposedAdversary,
    DEFAULT_COMPOSED_PARAMS,
    build_composition,
    canonical_composed_params,
)
from ..adversary.schedule import ConstantSchedule, OnOffSchedule
from ..adversary.targeting import RandomSubsetTargeting, RoundRobinTargeting
from ..adversary.vectors import (
    AdmissionFloodVector,
    BruteForcePollVector,
    PipeStoppageVector,
)

#: Builder signature: ``builder(world, **params) -> adversary``.
AdversaryBuilder = Callable[..., object]


@dataclass
class AdversaryEntry:
    """One registered attack strategy."""

    name: str
    builder: AdversaryBuilder
    description: str = ""
    defaults: Dict[str, object] = field(default_factory=dict)
    #: Optional params-canonicalization hook used for content hashing: maps
    #: a defaults-merged parameter dict to its fully-resolved form (e.g.
    #: merging nested component defaults of structured composition specs).
    canonicalize: Optional[Callable[[Dict[str, object]], Dict[str, object]]] = None

    def build(self, world: object, **params: object) -> object:
        merged = dict(self.defaults)
        merged.update(params)
        unknown = set(merged) - set(self.defaults)
        if self.defaults and unknown:
            raise TypeError(
                "unknown parameter(s) %s for adversary %r (known: %s)"
                % (", ".join(sorted(unknown)), self.name, ", ".join(sorted(self.defaults)))
            )
        return self.builder(world, **merged)


class AdversaryRegistry:
    """Mutable mapping from adversary kind to :class:`AdversaryEntry`."""

    def __init__(self) -> None:
        self._entries: Dict[str, AdversaryEntry] = {}

    # -- registration ------------------------------------------------------------------

    def register(
        self,
        name: str,
        builder: Optional[AdversaryBuilder] = None,
        *,
        defaults: Optional[Dict[str, object]] = None,
        description: str = "",
        canonicalize: Optional[
            Callable[[Dict[str, object]], Dict[str, object]]
        ] = None,
        replace: bool = False,
    ):
        """Register ``builder`` under ``name``; usable as a decorator."""

        def _register(fn: AdversaryBuilder) -> AdversaryBuilder:
            if name in self._entries and not replace:
                raise ValueError("adversary %r is already registered" % name)
            doc = (fn.__doc__ or "").strip()
            self._entries[name] = AdversaryEntry(
                name=name,
                builder=fn,
                description=description or (doc.splitlines()[0] if doc else ""),
                defaults=dict(defaults or {}),
                canonicalize=canonicalize,
            )
            return fn

        if builder is not None:
            return _register(builder)
        return _register

    # -- lookup ------------------------------------------------------------------------

    def get(self, name: str) -> AdversaryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                "unknown adversary %r (registered: %s)"
                % (name, ", ".join(sorted(self._entries)) or "<none>")
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[AdversaryEntry]:
        for name in self.names():
            yield self._entries[name]

    # -- factories ---------------------------------------------------------------------

    def create(self, name: str, world: object, **params: object) -> object:
        """Instantiate the adversary ``name`` against ``world``."""
        return self.get(name).build(world, **params)

    def factory(self, name: str, **params: object):
        """Return a ``world -> adversary`` factory (the legacy factory shape)."""
        entry = self.get(name)  # fail fast on unknown kinds

        def _factory(world: object) -> object:
            return entry.build(world, **params)

        _factory.adversary_kind = entry.name  # type: ignore[attr-defined]
        _factory.adversary_params = dict(params)  # type: ignore[attr-defined]
        return _factory


#: The process-wide default registry (builtins below register into it).
DEFAULT_REGISTRY = AdversaryRegistry()


def adversary(name: str, **kwargs):
    """Decorator registering a builder into :data:`DEFAULT_REGISTRY`."""
    return DEFAULT_REGISTRY.register(name, **kwargs)


# --- builtin strategies (Section 7 of the paper) -------------------------------------

@adversary(
    "pipe_stoppage",
    defaults={
        "attack_duration_days": 30.0,
        "coverage": 1.0,
        "recuperation_days": 30.0,
    },
    description="Network-level blackout of a random victim fraction (Figs 3-5)",
)
def build_pipe_stoppage(
    world,
    *,
    attack_duration_days: float,
    coverage: float,
    recuperation_days: float,
) -> ComposedAdversary:
    """Suppress all communication for a fraction of the population.

    A thin composition (random-subset targeting x on/off schedule x the
    pipe-stoppage vector) in *shared* RNG-lane mode, replaying the legacy
    monolithic ``PipeStoppageAdversary`` sample path bit for bit.
    """
    return _composed_for_world(
        world,
        stream="adversary/pipe-stoppage",
        node_id="pipe-stoppage-adversary",
        targeting=RandomSubsetTargeting(coverage=coverage),
        schedule=OnOffSchedule(
            attack_duration_days=attack_duration_days,
            recuperation_days=recuperation_days,
        ),
        vectors=[PipeStoppageVector()],
    )


@adversary(
    "admission_flood",
    defaults={
        "attack_duration_days": 30.0,
        "coverage": 1.0,
        "recuperation_days": 30.0,
        "invitations_per_victim_per_day": 4.0,
    },
    description="Garbage-invitation flood against admission control (Figs 6-8)",
)
def build_admission_flood(
    world,
    *,
    attack_duration_days: float,
    coverage: float,
    recuperation_days: float,
    invitations_per_victim_per_day: float,
) -> ComposedAdversary:
    """Flood victims with cheap garbage invitations from unknown identities.

    A thin composition (random-subset targeting x on/off schedule x the
    admission-flood vector) in shared RNG-lane mode, replaying the legacy
    monolithic ``AdmissionControlAdversary`` sample path bit for bit.
    """
    return _composed_for_world(
        world,
        stream="adversary/admission-flood",
        node_id="admission-flood-adversary",
        targeting=RandomSubsetTargeting(coverage=coverage),
        schedule=OnOffSchedule(
            attack_duration_days=attack_duration_days,
            recuperation_days=recuperation_days,
        ),
        vectors=[
            AdmissionFloodVector(
                invitations_per_victim_per_day=invitations_per_victim_per_day,
            )
        ],
    )


@adversary(
    "brute_force",
    defaults={
        "defection": "none",
        "attempts_per_victim_au_per_day": 5.0,
        "identity_pool_size": 100,
        "use_schedule_oracle": True,
    },
    description="Effortful brute-force adversary with a defection point (Table 1)",
)
def build_brute_force(
    world,
    *,
    defection,
    attempts_per_victim_au_per_day: float,
    identity_pool_size: int,
    use_schedule_oracle: bool,
) -> ComposedAdversary:
    """Pay real introductory effort, then defect at INTRO/REMAINING/NONE.

    A thin composition (round-robin full-coverage targeting x constant
    schedule x the brute-force-poll vector) in shared RNG-lane mode,
    replaying the legacy monolithic ``BruteForceAdversary`` sample path bit
    for bit.
    """
    if not isinstance(defection, DefectionPoint):
        defection = DefectionPoint(str(defection).lower())
    return _composed_for_world(
        world,
        stream="adversary/brute-force",
        node_id="brute-force-adversary",
        targeting=RoundRobinTargeting(coverage=1.0),
        schedule=ConstantSchedule(),
        vectors=[
            BruteForcePollVector(
                defection=defection,
                attempts_per_victim_au_per_day=attempts_per_victim_au_per_day,
                identity_pool_size=identity_pool_size,
                use_schedule_oracle=use_schedule_oracle,
            )
        ],
    )


def _composed_for_world(
    world,
    stream: str,
    node_id: str,
    targeting,
    schedule,
    vectors,
    adaptive=None,
    lanes=None,
) -> ComposedAdversary:
    """Assemble a :class:`ComposedAdversary` against a built world."""
    return ComposedAdversary(
        simulator=world.simulator,
        network=world.network,
        rng=world.streams.stream(stream),
        victims=world.peers,
        au_ids=[au.au_id for au in world.aus],
        protocol_config=world.protocol_config,
        cost_model=world.cost_model,
        end_time=world.sim_config.duration,
        targeting=targeting,
        schedule=schedule,
        vectors=vectors,
        adaptive=adaptive,
        lanes=lanes,
        node_id=node_id,
    )


@adversary(
    "composed",
    defaults=dict(DEFAULT_COMPOSED_PARAMS),
    description=(
        "Generic composed attack: targeting x schedule x attack-vector stack, "
        "optionally adaptive"
    ),
    canonicalize=canonical_composed_params,
)
def build_composed(
    world,
    *,
    targeting,
    schedule,
    vectors,
    adaptive,
    rng_lanes,
    node_id,
) -> ComposedAdversary:
    """Build a composed adversary from a structured component spec.

    Component specs are ``{"kind": ..., <param>: ...}`` objects resolved
    against the component registries (see
    :mod:`repro.adversary.components`).  ``rng_lanes`` picks the component
    RNG discipline: ``"per_component"`` (default — every component gets its
    own named child lane under ``adversary/<node_id>``) or ``"shared"``
    (all components draw from one stream, the legacy monolithic discipline).
    """
    parts = build_composition(
        {
            "targeting": targeting,
            "schedule": schedule,
            "vectors": vectors,
            "adaptive": adaptive,
            "rng_lanes": rng_lanes,
            "node_id": node_id,
        }
    )
    stream = "adversary/%s" % parts["node_id"]
    lanes = (
        world.streams.lanes(stream) if parts["rng_lanes"] == "per_component" else None
    )
    return _composed_for_world(
        world,
        stream=stream,
        node_id=parts["node_id"],
        targeting=parts["targeting"],
        schedule=parts["schedule"],
        vectors=parts["vectors"],
        adaptive=parts["adaptive"],
        lanes=lanes,
    )
