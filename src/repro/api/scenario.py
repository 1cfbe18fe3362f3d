"""Declarative experiment scenarios.

A :class:`Scenario` is a complete, serializable description of one
experiment: which base configuration it starts from, which protocol and
simulation parameters it overrides, which adversary (if any) attacks the
population, and which seeds are averaged.  A parameter grid over a scenario
is a :class:`~repro.api.campaign.Campaign`.  Scenarios round-trip through
JSON, so any experiment point can be stored as a small artifact file and
re-run with ``repro-experiments campaign run scenario.json``.

Every scenario has a **content digest**: a SHA-256 over its *resolved*
configuration (base applied, overrides merged), so two scenarios that
describe the same experiment hash identically no matter how they were
spelled.  The digest keys the persistent :class:`~repro.api.store.ResultStore`
and the per-run cache of :class:`~repro.api.session.Session`.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..config import (
    ProtocolConfig,
    SimulationConfig,
    paper_config,
    scaled_config,
    smoke_config,
)

#: Named base configurations a scenario can start from.  Each factory returns
#: a ``(ProtocolConfig, SimulationConfig)`` pair with its default arguments.
BASE_CONFIGS: Dict[str, Callable[[], Tuple[ProtocolConfig, SimulationConfig]]] = {
    "paper": paper_config,
    "scaled": scaled_config,
    "smoke": smoke_config,
}


def _jsonable(value: object) -> object:
    """Convert ``value`` into plain JSON types (recursively)."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def canonical_json(payload: object) -> str:
    """Serialize ``payload`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


#: Each config class's field names, taken once, and a getter of their values.
_CONFIG_FIELDS = {
    cls: (names, operator.attrgetter(*names))
    for cls in (ProtocolConfig, SimulationConfig)
    for names in [tuple(f.name for f in dataclasses.fields(cls))]
}


def _field_values(config: object) -> Dict[str, object]:
    """``dataclasses.asdict(config)`` minus the deep copy: every field is a JSON
    scalar or a tuple of them, which ``json.dumps`` writes as ``_jsonable`` would."""
    names, values = _CONFIG_FIELDS[type(config)]
    return dict(zip(names, values(config)))


def _changed_fields(config: object, base: object) -> Dict[str, object]:
    """``config``'s field values that differ from ``base``'s."""
    return {k: v for k, v in _field_values(config).items() if v != getattr(base, k)}


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call: the canonical JSON text of plain values.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def config_digest(
    protocol: ProtocolConfig,
    sim: SimulationConfig,
    seeds: Sequence[int] = (),
    adversary: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> str:
    """Stable content digest of one experiment configuration.

    Unlike ``repr()``-based keys, the digest depends only on the dataclass
    *field values* (canonical JSON, sorted keys), so it is stable across
    Python versions, processes, and cosmetic refactors of the config classes.
    """
    return _values_digest(
        _encode(_field_values(protocol)),
        _encode(_field_values(sim)),
        _encode(list(seeds)),
        _encode(_jsonable(adversary)),
        _encode(_jsonable(extra)),
    )


def _values_digest(protocol: str, sim: str, seeds: str, adversary: str, extra: str) -> str:
    """The one digest formula: SHA-256 of the canonical JSON object
    ``{"adversary", "extra", "protocol", "seeds", "sim"}``, built from each
    part's canonical JSON text (see :func:`config_digest`)."""
    text = '{"adversary":%s,"extra":%s,"protocol":%s,"seeds":%s,"sim":%s}'
    text %= (adversary, extra, protocol, seeds, sim)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_keys(payload: Dict[str, object], spec: type, *also: str) -> None:
    """Reject a ``spec`` dict with a key that is neither a field of the
    dataclass ``spec`` nor in ``also``: a misspelled key would otherwise be
    dropped silently (an ``"adversery"`` runs no attack at all)."""
    known = [f.name for f in dataclasses.fields(spec)] + list(also)
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(
            "unknown %s key(s) %s (known: %s)"
            % (spec.__name__, ", ".join(map(repr, unknown)), ", ".join(known))
        )


class JsonSpec:
    """JSON text and file forms of a spec with ``to_dict`` / ``from_dict``."""

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]):
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass
class AdversarySpec:
    """Registry-keyed adversary description: a kind plus builder parameters.

    Parameters may be *structured*: the ``"composed"`` kind nests component
    specs (``{"targeting": {...}, "schedule": {...}, "vectors": [...]}``),
    addressable by dotted axis targets like ``adversary.targeting.coverage``
    or ``adversary.vectors.0.invitations_per_victim_per_day``.  Copies are
    deep so expanded campaign points never share nested structure.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": _jsonable(dict(self.params))}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AdversarySpec":
        check_keys(payload, cls)
        return cls(
            kind=str(payload["kind"]),
            params=copy.deepcopy(dict(payload.get("params") or {})),
        )

    def with_params(self, **params: object) -> "AdversarySpec":
        merged = copy.deepcopy(self.params)
        merged.update(params)
        return AdversarySpec(kind=self.kind, params=merged)

    def set_param(self, path: str, value: object) -> None:
        """Set a (possibly nested) parameter by dotted ``path``.

        Plain names assign directly; dotted paths walk nested dicts and
        lists (integer segments index lists), creating intermediate dicts
        for missing dict segments.
        """
        set_nested(self.params, path, value)


def set_nested(container: object, path: str, value: object) -> None:
    """Assign ``value`` at dotted ``path`` inside nested dicts/lists."""
    segments = path.split(".")
    current = container
    for position, segment in enumerate(segments[:-1]):
        if isinstance(current, list):
            current = current[int(segment)]
        else:
            nested = current.get(segment)
            if nested is None:
                # A kindless partial dict is fine — composed specs merge it
                # into the component's default — but a list index cannot be
                # conjured: fail here, not later at digest/build time.
                following = segments[position + 1]
                if following.isdigit():
                    raise ValueError(
                        "cannot apply %r: %r indexes a list, but the spec "
                        "has no %r list to index — spell the list out in "
                        "the adversary spec" % (path, following, segment)
                    )
                nested = {}
                current[segment] = nested
            current = nested
    last = segments[-1]
    if isinstance(current, list):
        current[int(last)] = value
    elif isinstance(current, dict):
        current[last] = value
    else:
        raise TypeError(
            "cannot set %r: segment %r resolves to %r, not a dict or list"
            % (path, ".".join(segments[:-1]), type(current).__name__)
        )


#: Axis scopes a campaign may target (``params`` is a pure row label).
AXIS_SCOPES: Tuple[str, ...] = ("protocol", "sim", "adversary", "faults", "params")


def split_axis_target(target: str) -> Tuple[str, str]:
    """Validate and split an axis target like ``"protocol.poll_interval"``."""
    scope, _, field_name = target.partition(".")
    if scope not in AXIS_SCOPES or not field_name:
        raise ValueError(
            "axis target %r must look like %s"
            % (target, " or ".join("'%s.<name>'" % scope for scope in AXIS_SCOPES))
        )
    return scope, field_name


def clone_point_scenario(scenario: "Scenario") -> "Scenario":
    """Copy a scenario deeply enough for independent point mutation."""
    return dataclasses.replace(
        scenario,
        protocol=dict(scenario.protocol),
        sim=dict(scenario.sim),
        adversary=(
            scenario.adversary.with_params() if scenario.adversary is not None else None
        ),
        faults=copy.deepcopy(scenario.faults),
        parameters=dict(scenario.parameters),
    )


def apply_axis_value(scenario: "Scenario", target: str, value: object) -> str:
    """Apply one axis value to a point scenario in place.

    Sets the targeted override (or, for ``params.*``, only the label),
    records the value in ``parameters`` under the target's final component,
    and suffixes the scenario name with ``<label>=<value>``.  Returns the
    recorded label.
    """
    scope, field_name = split_axis_target(target)
    if scope == "adversary":
        if scenario.adversary is None:
            raise ValueError("axis target %r needs an adversary spec" % target)
        # ``field_name`` may itself be a dotted path into a structured spec
        # ("targeting.coverage", "vectors.0.invitations_per_victim_per_day").
        scenario.adversary.set_param(field_name, value)
    elif scope == "protocol":
        scenario.protocol[field_name] = value
    elif scope == "sim":
        scenario.sim[field_name] = value
    elif scope == "faults":
        # Dotted paths address the fault-plan grammar ("churn.rate_per_peer_
        # per_year", "partitions.0.duration_days"); list indices must already
        # exist in the plan, mirroring adversary vector axes.
        set_nested(scenario.faults, field_name, value)
    scenario.parameters[field_name] = value
    scenario.name = "%s %s=%s" % (scenario.name, field_name, value)
    return field_name


def expand_axes(
    scenario: "Scenario", axes: Sequence[Dict[str, List[object]]]
) -> List["Scenario"]:
    """The cartesian product of ``axes`` over ``scenario``, first axis outermost.

    Each axis maps targets to equal-length value lists advanced in lockstep.
    The grid loop behind ``Campaign.expand``.
    """
    for axis in axes:
        for target in axis:
            split_axis_target(target)
    points: List[Scenario] = []
    widths = [range(len(next(iter(axis.values())))) for axis in axes]
    for positions in itertools.product(*widths):
        point = clone_point_scenario(scenario)
        for axis, position in zip(axes, positions):
            for target, values in axis.items():
                apply_axis_value(point, target, values[position])
        points.append(point)
    return points


def _overridden(
    base: object, overrides: Dict[str, object]
) -> Tuple[object, Dict[str, object]]:
    """``base`` with ``overrides`` applied: the new config, which its
    constructor validates, and its field values.

    JSON turns tuples into lists; tuple-typed config fields (link bandwidths,
    latency ranges) are converted back so resolved configs compare equal to
    natively constructed ones.
    """
    values = _field_values(base)
    for name, value in overrides.items():
        if isinstance(values.get(name), tuple) and isinstance(value, list):
            value = tuple(value)
        values[name] = value
    return type(base)(**values), values


@dataclass
class Scenario(JsonSpec):
    """One declarative experiment point: configs + adversary + faults + seeds.

    ``protocol`` and ``sim`` are override mappings applied on top of the
    named ``base`` configuration.  A grid of points over one scenario is a
    :class:`~repro.api.campaign.Campaign`'s axes.
    """

    name: str
    base: str = "scaled"
    protocol: Dict[str, object] = field(default_factory=dict)
    sim: Dict[str, object] = field(default_factory=dict)
    adversary: Optional[AdversarySpec] = None
    #: Fault-injection plan in its dict form (see :mod:`repro.faults.plan`);
    #: empty means no faults.  Faults describe the *environment*, not the
    #: adversary, so they apply to baseline runs too.
    faults: Dict[str, object] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (1, 2, 3)
    #: Free-form labels carried into ``ExperimentResult.parameters`` (campaign
    #: expansion records each point's axis values here).
    parameters: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base not in BASE_CONFIGS:
            raise ValueError(
                "unknown base config %r (known: %s)"
                % (self.base, ", ".join(sorted(BASE_CONFIGS)))
            )
        if isinstance(self.adversary, dict):
            self.adversary = AdversarySpec.from_dict(self.adversary)
        if self.faults:
            # Validate eagerly: an unknown section or misspelled field should
            # fail at construction, not mid-campaign inside a worker process.
            from ..faults.plan import FaultPlan

            FaultPlan.from_dict(self.faults)
        self.seeds = tuple(int(seed) for seed in self.seeds)
        if not self.seeds:
            raise ValueError("scenario needs at least one seed")

    # -- construction ------------------------------------------------------------------

    @classmethod
    def from_configs(
        cls,
        name: str,
        protocol_config: ProtocolConfig,
        sim_config: SimulationConfig,
        adversary: Optional[Union[AdversarySpec, Dict[str, object]]] = None,
        faults: Optional[Dict[str, object]] = None,
        seeds: Sequence[int] = (1, 2, 3),
        parameters: Optional[Dict[str, object]] = None,
    ) -> "Scenario":
        """Build a scenario from concrete config objects.

        The configs are stored as overrides against the ``paper`` base (the
        dataclass defaults), which keeps the JSON artifact small while the
        digest — computed over the resolved configs — stays representation
        independent.
        """
        base_protocol, base_sim = BASE_CONFIGS["paper"]()
        if isinstance(adversary, dict):
            adversary = AdversarySpec.from_dict(adversary)
        return cls(
            name=name,
            base="paper",
            protocol=_changed_fields(protocol_config, base_protocol),
            sim=_changed_fields(sim_config, base_sim),
            adversary=adversary,
            faults=copy.deepcopy(dict(faults or {})),
            seeds=tuple(seeds),
            parameters=dict(parameters or {}),
        )

    # -- resolution --------------------------------------------------------------------

    def resolve(
        self, seed: Optional[int] = None
    ) -> Tuple[ProtocolConfig, SimulationConfig]:
        """Materialize the (protocol, sim) configs this scenario describes."""
        base_protocol, base_sim = BASE_CONFIGS[self.base]()
        protocol = _overridden(base_protocol, self.protocol)[0]
        sim = _overridden(base_sim, self.sim)[0]
        if seed is not None:
            sim = sim.with_overrides(seed=int(seed))
        return protocol, sim

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "base": self.base,
            "protocol": _jsonable(dict(self.protocol)),
            "sim": _jsonable(dict(self.sim)),
            "adversary": self.adversary.to_dict() if self.adversary else None,
            "faults": _jsonable(dict(self.faults)),
            "seeds": list(self.seeds),
            "parameters": _jsonable(dict(self.parameters)),
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Scenario":
        # "sweep" is known so that payloads written before sweeps moved to
        # campaigns (traces, checkpoints, broker rows hold "sweep": {}) load.
        check_keys(payload, cls, "sweep")
        if payload.get("sweep"):
            raise ValueError(
                "a scenario has no sweep axes; declare the grid as a campaign's "
                '"axes" (Campaign.from_grid(name, scenario, grid))'
            )
        adversary = payload.get("adversary")
        return cls(
            name=str(payload.get("name", "scenario")),
            base=str(payload.get("base", "scaled")),
            protocol=dict(payload.get("protocol") or {}),
            sim=dict(payload.get("sim") or {}),
            adversary=(
                AdversarySpec.from_dict(adversary) if adversary is not None else None
            ),
            faults=copy.deepcopy(dict(payload.get("faults") or {})),
            seeds=tuple(payload.get("seeds") or (1, 2, 3)),
            parameters=dict(payload.get("parameters") or {}),
        )

    # -- identity ----------------------------------------------------------------------

    def _canonical_adversary(self) -> Optional[Dict[str, object]]:
        """Adversary spec with registry defaults merged in, for hashing.

        Omitting a parameter and spelling out its default run the same
        simulation, so they must hash identically.  Unregistered kinds (e.g.
        a custom adversary not imported here) hash over the raw spec.
        """
        if self.adversary is None:
            return None
        from .registry import DEFAULT_REGISTRY

        payload = self.adversary.to_dict()
        if self.adversary.kind in DEFAULT_REGISTRY:
            entry = DEFAULT_REGISTRY.get(self.adversary.kind)
            merged = dict(entry.defaults)
            merged.update(payload["params"])
            if entry.canonicalize is not None:
                # Structured specs resolve nested component defaults too, so
                # an omitted component default hashes like a spelled-out one.
                merged = entry.canonicalize(merged)
            payload = {"kind": payload["kind"], "params": _jsonable(merged)}
        return payload

    def _canonical_faults(self) -> Optional[Dict[str, object]]:
        """Fault plan with grammar defaults merged in, for hashing.

        Returns None for an empty or no-op plan: a plan that injects nothing
        runs the same simulation as no plan at all, so they must hash
        identically (and identically to pre-fault-subsystem digests).
        """
        if not self.faults:
            return None
        from ..faults.plan import canonical_fault_plan

        return canonical_fault_plan(self.faults)

    @property
    def digest(self) -> str:
        """Content digest over the *resolved* experiment description.

        The scenario name and the base/override split do not affect the
        digest; the resolved configs, adversary spec (registry defaults
        merged), fault plan (when active) and seeds do.  Two
        differently-spelled scenarios describing the same experiment
        therefore share result-store artifacts.
        """
        return _Identity(self).digest(_encode(self._canonical_adversary()))

    def point_digest(self, seed: int, baseline: bool = False) -> str:
        """Digest of a single-seed run of this scenario (attacked or baseline).

        Faults are environment, not attack: an active fault plan is part of
        the baseline run's digest too.
        """
        adversary = None if baseline else self._canonical_adversary()
        return _Identity(self).run_digest(seed, _encode(adversary))

    def run_keys(self) -> List[RunKey]:
        """``(seed, baseline, run digest)`` of every run this point needs.

        In execution order: the attacked run of every seed, then — only with
        an adversary — the baseline run of every seed (without one the
        baseline *is* the attacked run).  One resolution serves all of them.
        """
        return _Identity(self).point(self)[1]


#: ``(seed, baseline, run digest)``: one run a point needs.
RunKey = Tuple[int, bool, str]


class _Identity:
    """One override set — base, protocol, sim, faults, seeds — resolved (so
    validated) and JSON-encoded once; its points' digests then encode only
    their adversary.  Never kept on a scenario: a scenario is mutable."""

    def __init__(self, scenario: Scenario) -> None:
        base_protocol, base_sim = BASE_CONFIGS[scenario.base]()
        self.protocol = _encode(_overridden(base_protocol, scenario.protocol)[1])
        sim = _overridden(base_sim, scenario.sim)[1]
        # A run digest changes only the sim's seed: encode the rest once and
        # splice each seed's JSON in where the placeholder 0 was.
        head, _, self.sim_tail = _encode(dict(sim, seed=0)).partition('"seed":0')
        self.sim_head = head + '"seed":'
        self.sim = self.sim_head + _encode(sim["seed"]) + self.sim_tail
        self.seeds = _encode(list(scenario.seeds))
        faults = scenario._canonical_faults()
        self.extra = _encode(_jsonable({"faults": faults} if faults is not None else None))
        #: the baseline run keys, the same for every attacked point of the set
        self._baseline_keys: Optional[List[RunKey]] = None

    def digest(self, adversary: str) -> str:
        """The point digest, given the canonical adversary's JSON text."""
        return _values_digest(self.protocol, self.sim, self.seeds, adversary, self.extra)

    def run_digest(self, seed: int, adversary: str) -> str:
        """One single-seed run's digest (``adversary`` is ``"null"`` for a baseline)."""
        sim = "%s%d%s" % (self.sim_head, int(seed), self.sim_tail)
        return _values_digest(self.protocol, sim, _encode([seed]), adversary, self.extra)

    def point(self, scenario: Scenario) -> Tuple[str, List[RunKey]]:
        """``(digest, run_keys())`` of ``scenario``, one of this override set's points."""
        adversary = _encode(scenario._canonical_adversary())
        seeds = scenario.seeds
        keys = [(seed, False, self.run_digest(seed, adversary)) for seed in seeds]
        if scenario.adversary is not None:
            if self._baseline_keys is None:
                self._baseline_keys = [
                    (seed, True, self.run_digest(seed, "null")) for seed in seeds
                ]
            keys += self._baseline_keys
        return self.digest(adversary), keys


def point_identities(scenarios: Sequence[Scenario]) -> List[Tuple[str, List[RunKey]]]:
    """``(digest, run_keys())`` of every scenario, resolving each distinct
    override set once: the points of a grid that differ only in
    ``adversary.*`` or ``params.*`` axes share one.  The table lives for
    this call only."""
    table: Dict[str, _Identity] = {}
    identities = []
    for scenario in scenarios:
        # repr is exact for the JSON values overrides hold; spellings that
        # differ only in key order just resolve twice.
        overrides = (scenario.protocol, scenario.sim, scenario.faults)
        key = repr((scenario.base, scenario.seeds, overrides))
        identity = table.get(key)
        if identity is None:
            identity = table[key] = _Identity(scenario)
        identities.append(identity.point(scenario))
    return identities
