"""Run-level metric summaries and attack-vs-baseline comparisons.

:class:`RunMetrics` condenses one simulation run into the quantities the
paper reports.  :func:`compare_runs` combines an attacked run with its
matching baseline (same seeds, no adversary) into an
:class:`AttackAssessment` carrying the paper's three ratio metrics alongside
the absolute access failure probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class RunMetrics:
    """Metrics of a single simulation run."""

    #: Mean fraction of damaged replicas over all sampling points.
    access_failure_probability: float
    #: Mean time between successful polls across (peer, AU) series, seconds.
    mean_time_between_successful_polls: float
    #: Total number of successful polls across the population.
    successful_polls: int
    #: Total number of failed (inquorate / outvoted) polls.
    failed_polls: int
    #: Total number of inconclusive polls (operator alarms).
    inconclusive_polls: int
    #: Total effort expended by loyal peers, in seconds of compute.
    loyal_effort: float
    #: Total effort expended by the adversary, in seconds of compute.
    adversary_effort: float
    #: Observation window over which the run was measured, seconds.
    observation_window: float
    #: Free-form extra counters for experiment-specific reporting.
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def effort_per_successful_poll(self) -> float:
        """Average loyal effort per successful poll (the friction numerator)."""
        return self.loyal_effort / max(1, self.successful_polls)

    @property
    def total_polls(self) -> int:
        return self.successful_polls + self.failed_polls + self.inconclusive_polls

    def observations(self):
        """This run as typed observation records (polls/admission/effort/damage).

        The typed view (:mod:`repro.api.observations`) replaces ad-hoc
        field-grabs over ``extras`` in reporting code; it is a pure
        projection of this object, so it never changes result digests.
        """
        # Imported lazily: metrics is a lower layer than the api package.
        from ..api.observations import RunObservations

        return RunObservations.from_metrics(self)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation: the store's ``runs`` artifact."""
        return {
            "access_failure_probability": self.access_failure_probability,
            "mean_time_between_successful_polls": self.mean_time_between_successful_polls,
            "successful_polls": self.successful_polls,
            "failed_polls": self.failed_polls,
            "inconclusive_polls": self.inconclusive_polls,
            "loyal_effort": self.loyal_effort,
            "adversary_effort": self.adversary_effort,
            "observation_window": self.observation_window,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunMetrics":
        return cls(
            access_failure_probability=float(payload["access_failure_probability"]),
            mean_time_between_successful_polls=float(
                payload["mean_time_between_successful_polls"]
            ),
            successful_polls=int(payload["successful_polls"]),
            failed_polls=int(payload["failed_polls"]),
            inconclusive_polls=int(payload["inconclusive_polls"]),
            loyal_effort=float(payload["loyal_effort"]),
            adversary_effort=float(payload["adversary_effort"]),
            observation_window=float(payload["observation_window"]),
            extras={
                str(key): float(value)
                for key, value in (payload.get("extras") or {}).items()
            },
        )


@dataclass
class AttackAssessment:
    """The paper's four metrics for one attack configuration."""

    #: Access failure probability of the attacked run.
    access_failure_probability: float
    #: Attacked mean-time-between-successful-polls over the baseline's.
    delay_ratio: float
    #: Attacked effort-per-successful-poll over the baseline's.
    coefficient_of_friction: float
    #: Adversary effort over loyal effort during the attacked run; None for
    #: effortless attacks (pipe stoppage costs the adversary no modeled effort).
    cost_ratio: Optional[float]
    #: The underlying runs, for drill-down in reports and tests.
    attacked: RunMetrics = None  # type: ignore[assignment]
    baseline: RunMetrics = None  # type: ignore[assignment]


def compare_runs(attacked: RunMetrics, baseline: RunMetrics) -> AttackAssessment:
    """Compute delay ratio, coefficient of friction, and cost ratio.

    Both runs must have been measured over comparable observation windows
    (the experiment runner uses identical configurations apart from the
    adversary).
    """
    baseline_gap = max(baseline.mean_time_between_successful_polls, 1e-9)
    delay_ratio = attacked.mean_time_between_successful_polls / baseline_gap

    baseline_effort = max(baseline.effort_per_successful_poll, 1e-9)
    coefficient_of_friction = attacked.effort_per_successful_poll / baseline_effort

    if attacked.adversary_effort > 0:
        cost_ratio: Optional[float] = attacked.adversary_effort / max(attacked.loyal_effort, 1e-9)
    else:
        cost_ratio = None

    return AttackAssessment(
        access_failure_probability=attacked.access_failure_probability,
        delay_ratio=delay_ratio,
        coefficient_of_friction=coefficient_of_friction,
        cost_ratio=cost_ratio,
        attacked=attacked,
        baseline=baseline,
    )


def average_metrics(runs: "list[RunMetrics]") -> RunMetrics:
    """Average several runs (different seeds) of the same configuration."""
    if not runs:
        raise ValueError("cannot average zero runs")
    n = len(runs)
    extras: Dict[str, float] = {}
    for run in runs:
        for key, value in run.extras.items():
            extras[key] = extras.get(key, 0.0) + value / n
    return RunMetrics(
        access_failure_probability=sum(r.access_failure_probability for r in runs) / n,
        mean_time_between_successful_polls=(
            sum(r.mean_time_between_successful_polls for r in runs) / n
        ),
        successful_polls=int(round(sum(r.successful_polls for r in runs) / n)),
        failed_polls=int(round(sum(r.failed_polls for r in runs) / n)),
        inconclusive_polls=int(round(sum(r.inconclusive_polls for r in runs) / n)),
        loyal_effort=sum(r.loyal_effort for r in runs) / n,
        adversary_effort=sum(r.adversary_effort for r in runs) / n,
        observation_window=sum(r.observation_window for r in runs) / n,
        extras=extras,
    )
