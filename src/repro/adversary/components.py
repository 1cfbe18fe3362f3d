"""Registries and spec grammar for composable adversary strategy components.

The composable adversary API decomposes an attack into orthogonal components
(Section 4 / 6.2 of the paper frames attrition attacks exactly this way):

* a **targeting policy** — which loyal peers are attacked each cycle,
* a **schedule** — when the attack is on, and how intensely,
* one or more **attack vectors** — what is actually done to the victims,
* an optional **adaptive policy** — which vectors are active in each cycle,
  chosen from the adversary's own observed outcomes.

Each component family has its own :class:`ComponentRegistry`.  A component is
described by a flat JSON object — its *spec* — of the form::

    {"kind": "<registered name>", "<param>": <value>, ...}

so specs round-trip through Scenario/Campaign JSON and individual parameters
are addressable by campaign axes (``adversary.targeting.coverage``,
``adversary.vectors.0.invitations_per_victim_per_day``).  ``build`` merges the
component's declared defaults under the given spec and rejects unknown
parameters; ``canonical`` returns the fully-merged spec, so an omitted
default and a spelled-out default hash identically.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Type


class StrategyComponent:
    """Base class for all pluggable strategy components.

    Subclasses declare a ``kind`` (their registry key) and ``defaults`` (the
    complete parameter schema: every constructor keyword with its default
    value).  The constructor of every component accepts exactly the keywords
    in ``defaults``.
    """

    #: Registry key; set by :meth:`ComponentRegistry.register`.
    kind: str = ""
    #: Complete parameter schema: keyword -> default value.
    defaults: Dict[str, object] = {}

    @classmethod
    def describe(cls) -> str:
        """One-line component description (the docstring's first line)."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def to_spec(self) -> Dict[str, object]:
        """The component's full spec (kind plus every parameter value)."""
        spec: Dict[str, object] = {"kind": self.kind}
        for name in self.defaults:
            spec[name] = getattr(self, name)
        return spec


class ComponentRegistry:
    """String-keyed registry of one strategy-component family."""

    def __init__(self, category: str) -> None:
        self.category = category
        self._entries: Dict[str, Type[StrategyComponent]] = {}

    # -- registration ------------------------------------------------------------------

    def register(self, kind: str) -> Callable[[Type[StrategyComponent]], Type[StrategyComponent]]:
        """Class decorator registering a component under ``kind``."""

        def _register(cls: Type[StrategyComponent]) -> Type[StrategyComponent]:
            if kind in self._entries:
                raise ValueError(
                    "%s component %r is already registered" % (self.category, kind)
                )
            cls.kind = kind
            self._entries[kind] = cls
            return cls

        return _register

    # -- lookup ------------------------------------------------------------------------

    def get(self, kind: str) -> Type[StrategyComponent]:
        try:
            return self._entries[kind]
        except KeyError:
            raise KeyError(
                "unknown %s component %r (registered: %s)"
                % (self.category, kind, ", ".join(sorted(self._entries)) or "<none>")
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __iter__(self) -> Iterator[Type[StrategyComponent]]:
        for kind in self.names():
            yield self._entries[kind]

    # -- spec handling ------------------------------------------------------------------

    def _split_spec(self, spec: Dict[str, object]) -> "tuple[Type[StrategyComponent], Dict[str, object]]":
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValueError(
                "%s spec must be an object with a 'kind' key, got %r"
                % (self.category, spec)
            )
        cls = self.get(str(spec["kind"]))
        params = {key: value for key, value in spec.items() if key != "kind"}
        unknown = set(params) - set(cls.defaults)
        if unknown:
            raise TypeError(
                "unknown parameter(s) %s for %s component %r (known: %s)"
                % (
                    ", ".join(sorted(unknown)),
                    self.category,
                    cls.kind,
                    ", ".join(sorted(cls.defaults)) or "<none>",
                )
            )
        merged = dict(cls.defaults)
        merged.update(params)
        return cls, merged

    def build(self, spec: Dict[str, object]) -> StrategyComponent:
        """Instantiate the component described by ``spec`` (defaults merged)."""
        cls, merged = self._split_spec(spec)
        return cls(**merged)

    def canonical(self, spec: Dict[str, object]) -> Dict[str, object]:
        """The fully-merged spec: kind plus every parameter, defaults filled in.

        Canonical specs make scenario digests representation-independent:
        omitting a component parameter and spelling out its default describe
        the same attack, so they must hash identically.
        """
        cls, merged = self._split_spec(spec)
        payload: Dict[str, object] = {"kind": cls.kind}
        payload.update(merged)
        return payload

    def catalog(self) -> List[Dict[str, object]]:
        """One row per registered component: kind, defaults, description."""
        return [
            {
                "kind": cls.kind,
                "description": cls.describe(),
                "defaults": dict(cls.defaults),
            }
            for cls in self
        ]


#: The four component-family registries (populated by the sibling modules).
TARGETING_REGISTRY = ComponentRegistry("targeting")
SCHEDULE_REGISTRY = ComponentRegistry("schedule")
VECTOR_REGISTRY = ComponentRegistry("vector")
ADAPTIVE_REGISTRY = ComponentRegistry("adaptive")

COMPONENT_REGISTRIES: Dict[str, ComponentRegistry] = {
    "targeting": TARGETING_REGISTRY,
    "schedule": SCHEDULE_REGISTRY,
    "vector": VECTOR_REGISTRY,
    "adaptive": ADAPTIVE_REGISTRY,
}
