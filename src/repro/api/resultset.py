"""Queryable result layer over campaign executions.

A :class:`ResultSet` wraps the ordered :class:`PointResult` list a campaign
(or any batch of scenario points) produced and turns "script per figure" into
"query over a campaign":

* ``filter`` / ``group_by`` / ``values`` / ``aggregate`` — slice points by
  their sweep parameters;
* ``rows`` — export dotted-path columns (``"coverage"``,
  ``"assessment.delay_ratio"``, ``"attacked.polls.successful"``) as plain
  dict rows for tables and figures;
* ``observations`` — stream the typed per-run observation records (see
  :mod:`repro.api.observations`), tagged with point, seed, and
  attacked/baseline role.

Figure-specific row schemas are **row exporters**: named functions from a
:class:`ResultSet` to a list of row dicts, registered with
:func:`row_exporter`.  A :class:`~repro.api.campaign.Campaign` names its
exporter, so ``repro-experiments campaign report`` can rebuild exactly the
row payload (and therefore the result digest) of the matching benchmark
artifact.
"""

from __future__ import annotations

import hashlib
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .observations import OBSERVATION_KINDS, RunObservations, observe
from .scenario import canonical_json
from .session import ExperimentResult

if TYPE_CHECKING:
    from .campaign import CampaignPoint


class PointResult:
    """One expanded campaign point together with its experiment result."""

    def __init__(self, point: CampaignPoint, result: ExperimentResult):
        self.index = point.index
        self.scenario = point.scenario
        #: The point's digest, hashed once by ``Campaign.expand()``.
        self.digest = point.digest
        self.result = result
        self._attacked: Optional[RunObservations] = None
        self._baseline: Optional[RunObservations] = None

    # -- identity ----------------------------------------------------------------------

    # Label and parameters are the expanded point scenario's: a scenario
    # digest ignores pure row labels (``params.*`` axes).

    @property
    def label(self) -> str:
        return self.scenario.name

    @property
    def parameters(self) -> Dict[str, object]:
        return self.scenario.parameters

    @property
    def assessment(self):
        return self.result.assessment

    # -- typed observation views --------------------------------------------------------

    @property
    def attacked(self) -> RunObservations:
        """Typed observations of the averaged attacked run."""
        if self._attacked is None:
            self._attacked = observe(self.result.assessment.attacked)
        return self._attacked

    @property
    def baseline(self) -> RunObservations:
        """Typed observations of the averaged baseline run."""
        if self._baseline is None:
            self._baseline = observe(self.result.assessment.baseline)
        return self._baseline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PointResult(#%d %r)" % (self.index, self.label)


class ObservationRecord:
    """One typed observation, tagged with where it came from."""

    __slots__ = ("point", "label", "parameters", "seed", "role", "kind", "observation")

    def __init__(self, point, label, parameters, seed, role, kind, observation):
        self.point = point
        self.label = label
        self.parameters = parameters
        self.seed = seed
        self.role = role  # "attacked" | "baseline"
        self.kind = kind  # "polls" | "admission" | "effort" | "damage"
        self.observation = observation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ObservationRecord(point=%d seed=%s role=%s kind=%s)" % (
            self.point,
            self.seed,
            self.role,
            self.kind,
        )


class ResultSet:
    """An ordered, queryable collection of campaign point results.

    A result set is either **eager** (built from a sequence of points) or
    **lazy** (built from a ``loader`` callable returning a fresh point
    iterator each call — e.g. results streamed one at a time out of a
    SQLite store).  The streaming surface — ``iter_points`` /
    ``iter_rows`` / ``iter_values``, the default ``aggregate`` reduction,
    and ``observations`` — consumes a lazy set without ever materializing
    the full point list; anything that needs random access or reordering
    (indexing, ``filter``, ``group_by``, ``sort_by``, ``.points``)
    transparently materializes it first.
    """

    def __init__(
        self,
        points: Optional[Sequence[PointResult]] = None,
        loader: Optional[Callable[[], Iterator[PointResult]]] = None,
        count: Optional[int] = None,
    ):
        if loader is not None and points is not None:
            raise ValueError("pass either points or a loader, not both")
        self._loader = loader
        if loader is None:
            self._points: Optional[List[PointResult]] = list(points or [])
            self._count: Optional[int] = len(self._points)
        else:
            self._points = None
            self._count = count

    @classmethod
    def lazy(
        cls, loader: Callable[[], Iterator[PointResult]], count: Optional[int] = None
    ) -> "ResultSet":
        """A streaming result set; ``count`` (if known) serves ``len()``."""
        return cls(loader=loader, count=count)

    @property
    def points(self) -> List[PointResult]:
        """The materialized point list (loads a lazy set on first access)."""
        if self._points is None:
            self._points = list(self._loader())
            self._count = len(self._points)
        return self._points

    def __len__(self) -> int:
        if self._points is None and self._count is not None:
            return self._count
        return len(self.points)

    def __iter__(self) -> Iterator[PointResult]:
        return self.iter_points()

    def __getitem__(self, index: int) -> PointResult:
        return self.points[index]

    def iter_points(self) -> Iterator[PointResult]:
        """Stream points in order without materializing a lazy set."""
        if self._points is not None:
            return iter(self._points)
        return iter(self._loader())

    # -- querying ----------------------------------------------------------------------

    def filter(
        self,
        predicate: Optional[Callable[[PointResult], bool]] = None,
        **params: object,
    ) -> "ResultSet":
        """Points matching ``predicate`` and/or exact parameter values."""

        def matches(point: PointResult) -> bool:
            if predicate is not None and not predicate(point):
                return False
            return all(
                point.parameters.get(key) == value for key, value in params.items()
            )

        return ResultSet([point for point in self.points if matches(point)])

    def group_by(self, *columns: str) -> "Dict[object, ResultSet]":
        """Group points by one or more column values (insertion-ordered)."""
        if not columns:
            raise ValueError("group_by needs at least one column")
        groups: Dict[object, List[PointResult]] = {}
        for point in self.points:
            values = tuple(self.value(point, column) for column in columns)
            key = values[0] if len(values) == 1 else values
            groups.setdefault(key, []).append(point)
        return {key: ResultSet(points) for key, points in groups.items()}

    def sort_by(self, *columns: str) -> "ResultSet":
        """Points re-ordered by the given column values."""
        return ResultSet(
            sorted(
                self.points,
                key=lambda point: tuple(self.value(point, c) for c in columns),
            )
        )

    # -- column resolution --------------------------------------------------------------

    @staticmethod
    def value(point: PointResult, column: str) -> object:
        """Resolve one dotted column path against a point.

        Supported paths: ``"label"`` / ``"digest"`` / ``"index"``, parameter
        names (optionally as ``"params.<name>"``), ``"assessment.<metric>"``,
        and observation paths ``"attacked.<kind>.<field>"`` /
        ``"baseline.<kind>.<field>"`` (plus ``"<role>.extras.<key>"``).
        """
        if column == "label":
            return point.label
        if column == "digest":
            return point.digest
        if column == "index":
            return point.index
        scope, _, rest = column.partition(".")
        if scope == "params":
            return point.parameters.get(rest)
        if scope == "assessment" and rest:
            return getattr(point.assessment, rest)
        if scope in ("attacked", "baseline") and rest:
            run = point.attacked if scope == "attacked" else point.baseline
            kind, _, fieldname = rest.partition(".")
            if kind == "extras":
                return run.extras.get(fieldname)
            if kind in OBSERVATION_KINDS and fieldname:
                return getattr(run.get(kind), fieldname)
            raise KeyError("unknown observation path %r" % column)
        return point.parameters.get(column)

    def iter_values(self, column: str) -> Iterator[object]:
        """Stream one column's value per point."""
        for point in self.iter_points():
            yield self.value(point, column)

    def values(self, column: str) -> List[object]:
        return list(self.iter_values(column))

    def aggregate(
        self, column: str, reducer: Optional[Callable[[Sequence[float]], float]] = None
    ) -> float:
        """Reduce one numeric column over all points (default: mean).

        The default mean is a streaming reduction — a lazy result set is
        consumed one point at a time.  A custom ``reducer`` receives the
        full value list (its contract is a sequence).
        """
        if reducer is None:
            total = 0.0
            count = 0
            for value in self.iter_values(column):
                if value is not None:
                    total += float(value)
                    count += 1
            if not count:
                raise ValueError("no values for column %r" % column)
            return total / count
        values = [float(v) for v in self.iter_values(column) if v is not None]
        if not values:
            raise ValueError("no values for column %r" % column)
        return reducer(values)

    def iter_rows(self, *columns: str) -> Iterator[Dict[str, object]]:
        """Stream one dict row per point (see :meth:`rows` for the schema)."""
        for point in self.iter_points():
            if columns:
                yield {column: self.value(point, column) for column in columns}
                continue
            row: Dict[str, object] = {"label": point.label}
            row.update(point.parameters)
            assessment = point.assessment
            row.update(
                {
                    "access_failure_probability": assessment.access_failure_probability,
                    "delay_ratio": assessment.delay_ratio,
                    "coefficient_of_friction": assessment.coefficient_of_friction,
                    "cost_ratio": assessment.cost_ratio,
                }
            )
            yield row

    def rows(self, *columns: str) -> List[Dict[str, object]]:
        """Export one dict row per point.

        Without explicit columns, emits the label, every parameter, and the
        four assessment metrics — the generic campaign report.
        """
        return list(self.iter_rows(*columns))

    # -- observation stream -------------------------------------------------------------

    def observations(
        self,
        kinds: Optional[Sequence[str]] = None,
        roles: Sequence[str] = ("attacked", "baseline"),
    ) -> Iterator[ObservationRecord]:
        """Stream typed per-run observations across all points.

        Yields one record per (point, seed, role, kind).  For points without
        an adversary the baseline runs *are* the attacked runs; those
        duplicates are skipped.
        """
        selected = tuple(kinds) if kinds is not None else OBSERVATION_KINDS
        for kind in selected:
            if kind not in OBSERVATION_KINDS:
                raise KeyError(
                    "unknown observation kind %r (known: %s)"
                    % (kind, ", ".join(OBSERVATION_KINDS))
                )
        for point in self.iter_points():
            runs_by_role = {"attacked": point.result.attacked_runs}
            # Without an adversary the baseline runs *are* the attacked runs
            # (the scenario, not run-value coincidence, decides this).
            if point.scenario.adversary is not None:
                runs_by_role["baseline"] = point.result.baseline_runs
            seeds = point.scenario.seeds
            for role in roles:
                for offset, run in enumerate(runs_by_role.get(role, ())):
                    seed = seeds[offset] if offset < len(seeds) else None
                    observed = observe(run)
                    for kind in selected:
                        yield ObservationRecord(
                            point=point.index,
                            label=point.label,
                            parameters=point.parameters,
                            seed=seed,
                            role=role,
                            kind=kind,
                            observation=observed.get(kind),
                        )


# -- row exporters ---------------------------------------------------------------------

RowExporter = Callable[[ResultSet], List[Dict[str, object]]]

#: Named figure/table row schemas; campaigns reference exporters by name.
ROW_EXPORTERS: Dict[str, RowExporter] = {}


def row_exporter(name: str) -> Callable[[RowExporter], RowExporter]:
    """Register a named ``ResultSet -> rows`` exporter (decorator)."""

    def _register(fn: RowExporter) -> RowExporter:
        if name in ROW_EXPORTERS:
            raise ValueError("row exporter %r is already registered" % name)
        ROW_EXPORTERS[name] = fn
        return fn

    return _register


def export_rows(name: Optional[str], result_set: ResultSet) -> List[Dict[str, object]]:
    """Run the named exporter (or the generic report for ``None``).

    Exporters register at import time of their experiment module; importing
    :mod:`repro.experiments` loads every built-in figure/table schema.
    """
    if name is None:
        return result_set.rows()
    if name not in ROW_EXPORTERS:
        # The built-in exporters live in the experiment modules; pull them in
        # before giving up, so `Campaign.load(...)` + report works cold.
        import repro.experiments  # noqa: F401

    if name not in ROW_EXPORTERS:
        raise KeyError(
            "unknown row exporter %r (registered: %s)"
            % (name, ", ".join(sorted(ROW_EXPORTERS)) or "<none>")
        )
    return ROW_EXPORTERS[name](result_set)


def digest_rows(rows: Iterable[Dict[str, object]]) -> str:
    """Content digest of a row payload, holding one row at a time.

    Hashes the canonical JSON of each row between literal ``[`` ``,`` ``]``
    separators, which is byte-identical to ``canonical_json`` of the full
    list — so streaming reports (lazy result sets over a SQLite store)
    produce exactly the committed benchmark digests.
    """
    hasher = hashlib.sha256()
    hasher.update(b"[")
    for position, row in enumerate(rows):
        if position:
            hasher.update(b",")
        hasher.update(canonical_json(row).encode("utf-8"))
    hasher.update(b"]")
    return hasher.hexdigest()


#: The name streaming callers (and docs/SERVICE.md) use; any iterable works.
digest_rows_iter = digest_rows
