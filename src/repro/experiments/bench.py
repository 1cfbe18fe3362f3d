"""Figure-benchmark harness: timed artifacts, result digests, paper claims.

This module is the measurement half of the simulation-kernel fast path: it
runs every paper artifact (Figures 2-8, Table 1, the ablations) at laptop
scale, plus a 100-peer "paper-scale smoke" scenario, and records for each one

* the wall-clock time,
* the simulation throughput (events processed per second of wall-clock),
* the process peak RSS,
* a SHA-256 **result digest** over the artifact's full row payload, and
* the verdict on the **paper's claims** about those rows (:data:`ARTIFACTS`).

The digests make performance work falsifiable: every optimization of the
engine, network, or protocol hot paths must reproduce the committed digests
in ``benchmarks/bench_baseline.json`` bit for bit (``repro-experiments bench``
fails otherwise), so a speedup can never silently change experiment results.
The claims say what a digest cannot: when results do move, whether the shape
the paper reports (:func:`judge`) moved with them.

Every measurement goes through one artifact runner (:func:`_run_artifact`);
:func:`run_bench` reports it per artifact and :func:`run_comparison` pairs
it off/on for the ``--record-compare`` / ``--telemetry-compare`` /
``--fork-compare`` modes.  Timing the repository as a whole is the job of
the top-level ``perf/`` package (``BENCHMARK.json``); this module is the
digest-and-claims gate and the feature A/B.
"""

from __future__ import annotations

import json
import operator
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import units
from ..api import Session
from ..api.campaign import Campaign, CampaignRunner
from ..api.resultset import digest_rows, export_rows
from ..api.scenario import AdversarySpec, Scenario
from ..api.store import ResultStore
from ..config import ProtocolConfig, SimulationConfig
from ..crypto.hashing import NONCE_STREAM_VERSION
from .ablation import (
    admission_ablation_campaign,
    desync_ablation_campaign,
    effort_ablation_campaign,
)
from .admission_attack import admission_flood_campaign
from .baseline import baseline_campaign
from .composed import (
    adaptive_attack_campaign,
    adversary_matrix_campaign,
    combined_attack_campaign,
    delayed_attack_campaign,
)
from .effortful import effortful_campaign
from .faults import churn_baseline_campaign, partition_attack_campaign
from .pipe_stoppage import pipe_stoppage_campaign

#: Seeds used for every benchmark data point (the paper averages 3 runs per
#: point; benchmarks use 1 to stay fast).
BENCH_SEEDS: Tuple[int, ...] = (1,)

#: Storage damage inflation used at bench scale.
BENCH_DAMAGE_INFLATION = 60.0

#: Default location of the committed digest baseline.
DEFAULT_BASELINE_PATH = Path("benchmarks") / "bench_baseline.json"

#: Default location of the emitted performance report.
DEFAULT_REPORT_PATH = Path("BENCH_PR2.json")


def bench_configs(
    n_aus: int = 1,
    duration: float = units.months(9),
) -> Tuple[ProtocolConfig, SimulationConfig]:
    """Laptop-scale configuration used by all figure/table benchmarks."""
    protocol = ProtocolConfig(
        quorum=3,
        max_disagreeing_votes=1,
        outer_circle_size=3,
        reference_list_target_size=12,
        nominations_per_vote=3,
        friend_bias_count=1,
    )
    sim = SimulationConfig(
        n_peers=10,
        n_aus=n_aus,
        au_size=8 * units.MB,
        block_size=units.MB,
        duration=duration,
        sampling_interval=units.days(2),
        initial_reference_list_size=8,
        friends_list_size=2,
        storage_damage_inflation=BENCH_DAMAGE_INFLATION,
        seed=1,
    )
    return protocol, sim


def paper_smoke_scenario(
    protocol_config: ProtocolConfig,
    sim_config: SimulationConfig,
    seeds: Sequence[int] = BENCH_SEEDS,
    n_peers: int = 100,
) -> Scenario:
    """A 100-peer pipe-stoppage smoke test at paper-scale population.

    Short horizon, single AU: the point is to exercise the kernel at the
    paper's population size (100 peers), not to regenerate a figure.
    """
    sim = sim_config.with_overrides(
        n_peers=n_peers,
        initial_reference_list_size=min(30, n_peers - 1),
        friends_list_size=min(5, n_peers - 1),
    )
    scenario = Scenario.from_configs(
        "paper-scale-smoke",
        protocol_config,
        sim,
        adversary=AdversarySpec(
            "pipe_stoppage",
            {
                "attack_duration_days": 20.0,
                "coverage": 0.4,
                "recuperation_days": 30.0,
            },
        ),
        seeds=tuple(seeds),
    )
    return scenario


# -- artifact registry -----------------------------------------------------------------
#
# An artifact is a row of data: the figure's campaign factory and parameter
# grid, the two deltas it applies to :func:`bench_configs`, and the paper's
# claims about its rows.  The campaign is named after the artifact, so
# ``repro-experiments campaign run fig2_baseline`` and ``campaign report
# --check-digest`` resolve it.
#
# A claim is ``statement: predicate``.  The statement says what the paper
# reports and where; the predicate gets the exported rows indexed by the
# artifact's ``key`` parameter columns (``by[1.0, 150.0]``: coverage 1.0,
# 150-day attack), never by list position.  :func:`evaluate_claims` judges
# them on exactly the rows that are digested.

Row = Dict[str, object]
ACCESS_FAILURE = "access_failure_probability"
FRICTION = "coefficient_of_friction"


class Artifact(NamedTuple):
    """One measured artifact: what to run at bench scale and what must hold."""

    title: str
    factory: Callable[..., Campaign]
    grid: Dict[str, object]  # the factory's keyword arguments
    key: Tuple[str, ...] = ()  # the parameter columns claims select rows by
    claims: Dict[str, Callable[[Dict[object, Row]], bool]] = {}
    n_aus: int = 1  # bench_configs deltas
    months: float = 9.0


def _near_baseline(row: Row) -> bool:
    """Figure 6 and Table 1's "within a small factor of the no-attack baseline"
    at bench scale (inflated damage rate, one seed)."""
    baseline = row["baseline_access_failure_probability"]
    return row[ACCESS_FAILURE] <= max(4.0 * baseline, baseline + 0.05)


def _paper_smoke_campaign(name: str, **bench_scale: object) -> Campaign:
    """:func:`paper_smoke_scenario` as the one-point campaign an artifact is."""
    return Campaign(name, paper_smoke_scenario(**bench_scale), exporter="attack_sweep")


#: Every measured artifact, in report order.
ARTIFACTS: Dict[str, Artifact] = {
    "fig2_baseline": Artifact(
        "Figure 2 - baseline access failure",
        baseline_campaign,
        dict(
            poll_intervals_months=(2.0, 3.0, 6.0, 12.0),
            storage_mtbf_years=(5.0,),
            collection_sizes=(1,),
        ),
        key=("poll_interval_months",),
        claims={
            "Fig. 2: access failure grows with the poll interval (12 >= 2 months)": (
                lambda by: by[12.0][ACCESS_FAILURE] >= by[2.0][ACCESS_FAILURE]
            ),
            "Fig. 2: all four access failure probabilities lie in [0, 0.5)": (
                lambda by: len(by) == 4
                and all(0.0 <= row[ACCESS_FAILURE] < 0.5 for row in by.values())
            ),
        },
    ),
    "fig3_pipe_stoppage": Artifact(
        "Figure 3 - pipe stoppage access failure",
        pipe_stoppage_campaign,
        dict(
            durations_days=(10.0, 60.0, 150.0),
            coverages=(0.4, 1.0),
            recuperation_days=30.0,
        ),
        key=("coverage", "attack_duration_days"),
        claims={
            "Fig. 3: at 150 days, 100% coverage is as damaging as 40% (>= 0.8x)": (
                lambda by: by[1.0, 150.0][ACCESS_FAILURE]
                >= by[0.4, 150.0][ACCESS_FAILURE] * 0.8
            ),
            "Fig. 3: at 100% coverage, 150 days is as damaging as 10 days": (
                lambda by: by[1.0, 150.0][ACCESS_FAILURE] >= by[1.0, 10.0][ACCESS_FAILURE]
            ),
        },
    ),
    "fig4_delay_ratio": Artifact(
        "Figure 4 - pipe stoppage delay ratio",
        pipe_stoppage_campaign,
        dict(durations_days=(10.0, 120.0), coverages=(1.0,), recuperation_days=20.0),
        key=("attack_duration_days",),
        claims={
            "Fig. 4: a 10-day attack barely moves the delay ratio (< 2)": (
                lambda by: by[10.0]["delay_ratio"] < 2.0
            ),
            "Fig. 4: the delay ratio grows with attack duration (120 > 10 days)": (
                lambda by: by[120.0]["delay_ratio"] > by[10.0]["delay_ratio"]
            ),
            "Fig. 4: a 120-day full-coverage attack delays polls (ratio > 1.2)": (
                lambda by: by[120.0]["delay_ratio"] > 1.2
            ),
        },
    ),
    "fig5_friction": Artifact(
        "Figure 5 - pipe stoppage friction",
        pipe_stoppage_campaign,
        dict(durations_days=(5.0, 120.0), coverages=(1.0,), recuperation_days=20.0),
        key=("attack_duration_days",),
        claims={
            "Fig. 5: a 5-day attack leaves friction small (< 2)": (
                lambda by: by[5.0][FRICTION] < 2.0
            ),
            "Fig. 5: friction does not fall with duration (120 >= 0.9x 5 days)": (
                lambda by: by[120.0][FRICTION] >= by[5.0][FRICTION] * 0.9
            ),
            "Fig. 5: a 120-day full-coverage attack raises friction above 1": (
                lambda by: by[120.0][FRICTION] > 1.0
            ),
        },
    ),
    "fig6_admission": Artifact(
        "Figure 6 - admission flood access failure",
        admission_flood_campaign,
        dict(
            durations_days=(30.0, 200.0),
            coverages=(1.0,),
            invitations_per_victim_per_day=6.0,
        ),
        key=("attack_duration_days",),
        claims={
            "Fig. 6: the flood leaves access failure near the no-attack baseline": (
                lambda by: all(_near_baseline(row) for row in by.values())
            ),
        },
    ),
    "fig7_admission_delay": Artifact(
        "Figure 7 - admission flood delay ratio",
        admission_flood_campaign,
        dict(
            durations_days=(90.0, 200.0),
            coverages=(1.0,),
            invitations_per_victim_per_day=6.0,
        ),
        key=("attack_duration_days",),
        claims={
            "Fig. 7: the flood keeps the delay ratio near 1 (< 2) at every duration": (
                lambda by: all(row["delay_ratio"] < 2.0 for row in by.values())
            ),
        },
    ),
    "fig8_admission_friction": Artifact(
        "Figure 8 - admission flood friction",
        admission_flood_campaign,
        dict(
            durations_days=(200.0,),
            coverages=(0.4, 1.0),
            invitations_per_victim_per_day=8.0,
        ),
        key=("coverage",),
        claims={
            # The small bench population exaggerates the paper's 1.33: a
            # larger share of poller/voter pairs are unknown or in debt.
            "Fig. 8: the flood raises friction modestly (paper ~1.33; here [0.8, 3))": (
                lambda by: all(0.8 <= row[FRICTION] < 3.0 for row in by.values())
            ),
            "Fig. 8: friction grows with coverage (100% >= 0.9x 40%)": (
                lambda by: by[1.0][FRICTION] >= by[0.4][FRICTION] * 0.9
            ),
        },
    ),
    "table1_effortful": Artifact(
        "Table 1 - brute-force defection points",
        effortful_campaign,
        dict(
            defections=("intro", "remaining", "none"),
            collection_sizes=(1,),
            attempts_per_victim_au_per_day=5.0,
        ),
        key=("defection",),
        claims={
            "Table 1: friction NONE > INTRO (paper 2.60 > 1.40)": (
                lambda by: by["none"][FRICTION] > by["intro"][FRICTION]
            ),
            "Table 1: friction REMAINING > INTRO (paper 2.61 > 1.40)": (
                lambda by: by["remaining"][FRICTION] > by["intro"][FRICTION]
            ),
            "Table 1: full participation is the cheapest strategy: cost ratio NONE "
            "<= INTRO (paper 1.02 vs 1.93; REMAINING 1.55)": (
                lambda by: by["none"]["cost_ratio"] <= by["intro"]["cost_ratio"]
            ),
            "Table 1: delay ratio near 1 at every defection (paper 1.10-1.11; < 2)": (
                lambda by: all(row["delay_ratio"] < 2.0 for row in by.values())
            ),
            "Table 1: access failure near the no-attack baseline at every "
            "defection (paper 4.99e-4 to 6.35e-4)": (
                lambda by: all(_near_baseline(row) for row in by.values())
            ),
        },
    ),
    "ablation_admission": Artifact(
        "Ablation - admission control on/off",
        admission_ablation_campaign,
        dict(
            attack_duration_days=120.0,
            coverage=1.0,
            invitations_per_victim_per_day=96.0,
        ),
        key=("admission_control",),
        claims={
            "Section 5.1: without admission control defenders work at least as hard": (
                lambda by: by[False]["loyal_effort"] >= by[True]["loyal_effort"]
            ),
            "Section 5.1: admission control never helps the flood "
            "(friction on <= 1.5x off)": (
                lambda by: by[True][FRICTION] <= by[False][FRICTION] * 1.5
            ),
        },
    ),
    "ablation_effort": Artifact(
        "Ablation - introductory-effort toll",
        effort_ablation_campaign,
        dict(introductory_fractions=(0.20, 0.02), attempts_per_victim_au_per_day=5.0),
        key=("introductory_effort_fraction",),
        claims={
            "Section 5.1: a 2% introductory toll more than halves the reservation "
            "attacker's effort against the paper's 20%": (
                lambda by: by[0.02]["adversary_effort"]
                < 0.5 * by[0.20]["adversary_effort"]
            ),
            "Section 5.1: a 2% toll lowers the attacker's cost ratio against 20%": (
                lambda by: by[0.02]["cost_ratio"] < by[0.20]["cost_ratio"]
            ),
        },
    ),
    "ablation_desync": Artifact(
        "Ablation - desynchronized solicitation",
        desync_ablation_campaign,
        {},
        key=("mode",),
        claims={
            "Section 5.2: desynchronized solicitation is refused no more often": (
                lambda by: by["desynchronized"]["refusal_rate"]
                <= by["synchronized"]["refusal_rate"]
            ),
            "Section 5.2: desynchronized polls succeed as often (>= 0.95x compressed)": (
                lambda by: by["desynchronized"]["success_rate"]
                >= by["synchronized"]["success_rate"] * 0.95
            ),
        },
        n_aus=2,
    ),
    "paper_smoke_100": Artifact(
        "Paper-scale smoke - 100 peers, pipe stoppage",
        _paper_smoke_campaign,
        {},
        months=6.0,
    ),
    "combined_attack": Artifact(
        "Combined attack - admission flood + effortful brute force",
        combined_attack_campaign,
        dict(
            coverages=(0.4, 1.0),
            attack_duration_days=30.0,
            recuperation_days=30.0,
            invitations_per_victim_per_day=6.0,
        ),
    ),
    "adaptive_attack": Artifact(
        "Adaptive attack - brute force escalating to pipe stoppage",
        adaptive_attack_campaign,
        dict(thresholds=(0.05, 0.95)),
    ),
    "adversary_matrix": Artifact(
        "Adversary matrix - 2x2 targeting x vector smoke grid",
        adversary_matrix_campaign,
        {},
    ),
    "delayed_attack_sweep": Artifact(
        "Delayed attack - coverage sweep behind a 365-day quiescent prefix",
        delayed_attack_campaign,
        dict(
            coverages=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
            onset_day=365.0,
        ),
        # 18-month horizon with the strike at day 365: the adversary lurks for
        # two thirds of the archive's history, so the shared quiescent prefix
        # dominates and ``--fork-prefixes`` has real work to skip.
        months=18.0,
    ),
    "churn_baseline": Artifact(
        "Churn baseline - Poisson membership turnover, no adversary",
        churn_baseline_campaign,
        dict(churn_rates_per_year=(4.0, 12.0), mean_downtime_days=14.0),
    ),
    "partition_attack": Artifact(
        "Partition attack - admission flood riding a partition window",
        partition_attack_campaign,
        dict(
            partition_durations_days=(5.0, 20.0),
            partition_start_day=60.0,
            partition_fraction=0.4,
            attack_duration_days=120.0,
        ),
    ),
}


def artifact_campaign(name: str) -> Campaign:
    """The named artifact's campaign: the one call of a factory at bench scale."""
    artifact = ARTIFACTS[name]
    protocol, sim = bench_configs(
        n_aus=artifact.n_aus, duration=units.months(artifact.months)
    )
    return artifact.factory(
        **artifact.grid,
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name=name,
    )


def evaluate_claims(name: str, rows: Sequence[Row]) -> Dict[str, object]:
    """The verdict on ``name``'s claims over ``rows``: how many, which broke.

    A claim whose rows are missing or whose values cannot be compared is
    broken, not skipped; a name outside :data:`ARTIFACTS` has no claims.
    """
    if name not in ARTIFACTS or not ARTIFACTS[name].claims:
        return {"total": 0, "broken": []}
    artifact = ARTIFACTS[name]
    # itemgetter yields the bare value for one key column, a tuple for several;
    # rows without the key columns (another campaign's) satisfy no claim.
    columns = operator.itemgetter(*artifact.key)
    by = {columns(row): row for row in rows if set(artifact.key) <= set(row)}
    broken: List[str] = []
    for statement, holds in artifact.claims.items():
        try:
            held = holds(by)
        except (LookupError, TypeError):
            held = False
        if not held:
            broken.append(statement)
    return {"total": len(artifact.claims), "broken": broken}


#: Artifacts run under ``--quick`` (CI-sized subset; same digests as full).
QUICK_ARTIFACTS: Tuple[str, ...] = (
    "fig2_baseline",
    "fig3_pipe_stoppage",
    "fig6_admission",
    "paper_smoke_100",
)


def _peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KiB (None where the resource module is missing)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    value = usage.ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        value //= 1024
    return int(value)


#: Artifacts measured by ``bench --fork-compare`` when none are named: the
#: campaign families whose points share a baseline prefix.  The delayed
#: sweep is the shape prefix forking targets; the others bound its cost on
#: immediate-onset campaigns (forking falls back to full runs there).
FORK_ARTIFACTS: Tuple[str, ...] = (
    "delayed_attack_sweep",
    "fig3_pipe_stoppage",
    "combined_attack",
)


class Comparison(NamedTuple):
    """One ``bench --<mode>-compare`` A/B: what its "on" side switches on."""

    what: str  # the feature, as named in the verdict lines
    report: str  # where ``--out`` points by default
    artifacts: Tuple[str, ...]  # measured when none are named ...
    quick_artifacts: Tuple[str, ...]  # ... and under ``--quick``
    counters: Tuple[str, ...]  # what the on side counts besides time


#: The comparisons :func:`run_comparison` knows, by mode.  The off side of
#: every one is the plain run :func:`run_bench` also measures.
COMPARISONS: Dict[str, Comparison] = {
    "record": Comparison(
        "recording",
        "BENCH_PR6.json",
        tuple(ARTIFACTS),
        QUICK_ARTIFACTS,
        ("traces", "trace_bytes"),
    ),
    "telemetry": Comparison(
        "telemetry",
        "BENCH_PR10.json",
        tuple(ARTIFACTS),
        QUICK_ARTIFACTS,
        ("bus_events", "bus_dropped"),
    ),
    "fork": Comparison(
        "prefix forking",
        "BENCH_PR9.json",
        FORK_ARTIFACTS,
        FORK_ARTIFACTS[:1],
        ("checkpoints",),
    ),
}


def _run_artifact(name: str, variant: Optional[str] = None) -> Dict[str, object]:
    """Run one artifact's campaign against a throwaway store; return its record.

    ``variant`` names the :data:`COMPARISONS` feature to switch on — replay
    traces recorded, an :class:`~repro.telemetry.EventBus` attached *with a
    live subscriber* (the worst case the tap sites can see; dense topics
    batch, so ``bus_events`` counts published events, not records), or
    points forked from shared prefixes — and ``None`` is the plain run.
    Every variant goes through the same store-attached session, so the
    delta between two of them is the feature itself, not result persistence.
    """
    tmpdir = tempfile.mkdtemp(prefix="bench-%s-" % (variant or "plain"))
    try:
        store = ResultStore(tmpdir)
        bus = subscription = None
        if variant == "telemetry":
            from ..telemetry import EventBus

            bus = EventBus()
            subscription = bus.subscribe()
        session = Session(store=store, record=variant == "record", telemetry=bus)
        started = time.perf_counter()
        campaign = artifact_campaign(name)
        runner = CampaignRunner(session, fork_prefixes=variant == "fork")
        rows = export_rows(campaign.exporter, runner.run(campaign))
        wall = time.perf_counter() - started
        events = sum(
            run.extras.get("events_processed", 0.0)
            for run in session._run_cache.values()
        )
        record: Dict[str, object] = {
            "title": ARTIFACTS[name].title,
            "wall_s": round(wall, 4),
            "events": int(events),
            "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
            "rows": len(rows),
            "digest": digest_rows(rows),
            "claims": evaluate_claims(name, rows),
            "peak_rss_kb": _peak_rss_kb(),
        }
        if variant == "record":
            traces = store.trace_paths()
            record["traces"] = len(traces)
            record["trace_bytes"] = sum(path.stat().st_size for path in traces)
        elif variant == "telemetry":
            record["bus_events"] = subscription.delivered
            record["bus_dropped"] = subscription.dropped
            subscription.close()
        elif variant == "fork":
            record["checkpoints"] = len(store.checkpoint_paths())
        return record
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _select(names: Optional[Sequence[str]], default: Sequence[str]) -> Sequence[str]:
    """The artifacts to run: ``names`` when given (validated), else ``default``."""
    if names is None:
        return default
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        raise ValueError(
            "unknown bench artifacts: %s (known: %s)"
            % (", ".join(unknown), ", ".join(ARTIFACTS))
        )
    return names


def _environment(quick: bool) -> Dict[str, object]:
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "nonce_stream_version": NONCE_STREAM_VERSION,
        "cpus": os.cpu_count(),
        "quick": quick,
    }


def _median_ratio(offs: Iterable[float], ons: Iterable[float]):
    """Paired on/off wall ratios, and their median (None without any pair)."""
    ratios = [round(on / off, 4) for off, on in zip(offs, ons) if off]
    return ratios, (round(statistics.median(ratios), 4) if ratios else None)


def run_comparison(
    mode: str,
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: int = 5,
) -> Dict[str, object]:
    """Measure what one :data:`COMPARISONS` feature costs (or saves) per artifact.

    Estimator: every repeat runs the off and the on side back to back, in
    alternating order, so the two walls of a pair share the host's load and
    neither side always runs on the warmer cache.  ``ratio`` is the
    **median of the paired on/off wall ratios** — per artifact over its own
    pairs (``pair_ratios``), and for the total over the per-pass wall sums
    across all artifacts (``pass_ratios``).  On a noisy host that is the
    difference between measuring the feature and measuring the scheduler:
    independent best-of-N walls drift apart by whatever jitter hit each
    side's quietest moment, while adjacent pairs cancel it.  ``off`` / ``on``
    keep each side's best run for the absolute numbers.

    One schema for every mode: per artifact ``digest`` and ``claims`` are the
    off side's (so :func:`judge` applies unchanged), ``digest_match`` asserts
    every run of both sides produced that same digest — the feature must
    never perturb the simulation — and the mode's ``counters`` come from
    the best on-side run.  Overhead (``ratio - 1``) and speedup
    (``1 / ratio``) are derived by :func:`format_comparison`, not stored.
    """
    comparison = COMPARISONS[mode]
    names = _select(
        names, comparison.quick_artifacts if quick else comparison.artifacts
    )
    repeats = max(1, repeats)
    kept = ("wall_s", "events", "events_per_s", "peak_rss_kb")

    def wall(run: Dict[str, object]) -> float:
        return run["wall_s"]

    artifacts: Dict[str, Dict[str, object]] = {}
    pass_off, pass_on = [0.0] * repeats, [0.0] * repeats
    for name in names:
        offs: List[Dict[str, object]] = []
        ons: List[Dict[str, object]] = []
        for repeat in range(repeats):
            order = (None, mode) if repeat % 2 == 0 else (mode, None)
            runs = {variant: _run_artifact(name, variant) for variant in order}
            offs.append(runs[None])
            ons.append(runs[mode])
            pass_off[repeat] += wall(runs[None])
            pass_on[repeat] += wall(runs[mode])
        off, on = min(offs, key=wall), min(ons, key=wall)
        ratios, ratio = _median_ratio(map(wall, offs), map(wall, ons))
        artifacts[name] = {
            "title": off["title"],
            "digest": off["digest"],
            "claims": off["claims"],
            "digest_match": all(run["digest"] == off["digest"] for run in offs + ons),
            "off": {key: off[key] for key in kept},
            "on": {key: on[key] for key in kept},
            "pair_ratios": ratios,
            "ratio": ratio,
            **{counter: on[counter] for counter in comparison.counters},
        }
    pass_ratios, total_ratio = _median_ratio(pass_off, pass_on)
    records = list(artifacts.values())
    return {
        **_environment(quick),
        "mode": "%s-compare" % mode,
        "counters": list(comparison.counters),
        "repeats": repeats,
        "artifacts": artifacts,
        "total": {
            "off_wall_s": round(sum(wall(record["off"]) for record in records), 4),
            "on_wall_s": round(sum(wall(record["on"]) for record in records), 4),
            "pass_ratios": pass_ratios,
            "ratio": total_ratio,
            **{
                counter: sum(record[counter] for record in records)
                for counter in comparison.counters
            },
        },
    }


def format_comparison(report: Dict[str, object]) -> str:
    """Render any :func:`run_comparison` report as an aligned text table."""
    counters = tuple(report["counters"])
    layout = "%-24s %9s %9s %7s %9s %8s" + " %12s" * len(counters) + " %6s"
    titles = ("artifact", "off_s", "on_s", "ratio", "overhead", "speedup")
    header = layout % (titles + counters + ("match",))

    def line(name, off_s, on_s, record, match):
        ratio = record["ratio"] or 0.0
        cells = (
            name,
            "%.3f" % off_s,
            "%.3f" % on_s,
            "%.3f" % ratio,
            "%+.1f%%" % ((ratio - 1.0) * 100.0),
            "%.2fx" % (1.0 / ratio if ratio else 0.0),
        )
        return layout % (
            cells + tuple(str(record[counter]) for counter in counters) + (match,)
        )

    lines = [header, "-" * len(header)]
    for name, record in report["artifacts"].items():
        match = "yes" if record["digest_match"] else "NO"
        lines.append(
            line(name, record["off"]["wall_s"], record["on"]["wall_s"], record, match)
        )
    total = report["total"]
    lines.append("-" * len(header))
    lines.append(line("TOTAL", total["off_wall_s"], total["on_wall_s"], total, ""))
    return "\n".join(lines)


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the requested artifacts and return the measurement report."""
    names = _select(names, QUICK_ARTIFACTS if quick else tuple(ARTIFACTS))
    artifacts = {name: _run_artifact(name) for name in names}
    total_wall = sum(record["wall_s"] for record in artifacts.values())
    total_events = sum(record["events"] for record in artifacts.values())
    return {
        **_environment(quick),
        "artifacts": artifacts,
        "total": {
            "wall_s": round(total_wall, 4),
            "events": total_events,
            "events_per_s": round(total_events / total_wall, 1) if total_wall else 0.0,
        },
    }


# -- digest baseline ------------------------------------------------------------------


def load_baseline(path: Path = DEFAULT_BASELINE_PATH) -> Optional[Dict[str, str]]:
    """Committed artifact -> digest map; None when no baseline exists yet.

    A file that exists but is not a baseline (torn JSON, no ``digests`` map)
    raises :class:`ValueError` naming the path and the reason: it must be
    looked at, not reported as absent and overwritten.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise ValueError("unreadable digest baseline %s: %s" % (path, error))
    digests = payload.get("digests") if isinstance(payload, dict) else None
    if not isinstance(digests, dict):
        raise ValueError('unreadable digest baseline %s: no "digests" map in it' % path)
    return {str(key): str(value) for key, value in digests.items()}


def save_baseline(report: Dict[str, object], path: Path = DEFAULT_BASELINE_PATH) -> None:
    """Write the digest baseline derived from ``report``.

    Digests are merged into any existing baseline, so updating from a
    partial run (``--quick``, ``--artifacts``) refreshes only the artifacts
    that actually ran instead of silently deleting the rest.
    """
    digests: Dict[str, str] = load_baseline(path) or {}
    digests.update(
        {
            name: record["digest"]
            for name, record in report.get("artifacts", {}).items()
        }
    )
    payload = {
        "nonce_stream_version": report.get("nonce_stream_version"),
        "digests": digests,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def judge(
    artifacts: Dict[str, Dict[str, object]], baseline_path: Optional[Path]
) -> List[str]:
    """What is wrong with these artifact records, one message per problem.

    Each record carries the ``digest`` of its rows and :func:`evaluate_claims`'
    verdict on them.  A digest that left the baseline is reported with the
    verdict appended (did the paper's conclusions move with it?); a broken
    claim is reported by its statement, drift or not.  ``baseline_path=None``
    skips the digest comparison only.
    """
    baseline = None
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as error:
            return [str(error)]
        if baseline is None:
            return [
                "no digest baseline at %s (`bench --update-baseline` writes one)"
                % baseline_path
            ]
    problems: List[str] = []
    for name, record in artifacts.items():
        total, broken = record["claims"]["total"], record["claims"]["broken"]
        expected = baseline.get(name) if baseline is not None else record["digest"]
        if expected is None:
            problems.append("%s: no baseline digest in %s" % (name, baseline_path))
        elif record["digest"] != expected:
            problems.append(
                "%s: digest %s != baseline %s; %d/%d paper claims still hold"
                % (name, record["digest"][:16], expected[:16], total - len(broken), total)
            )
        problems.extend(
            "%s: paper claim broken: %s" % (name, statement) for statement in broken
        )
    return problems


# -- report emission ------------------------------------------------------------------


def write_report(report: Dict[str, object], path: Path = DEFAULT_REPORT_PATH) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: Dict[str, object]) -> str:
    """Render a :func:`run_bench` report as an aligned text table."""
    header = "%-24s %10s %12s %7s" % ("artifact", "wall_s", "events/s", "claims")
    lines = [header, "-" * len(header)]
    for name, record in report.get("artifacts", {}).items():
        claimed, broken = record["claims"]["total"], record["claims"]["broken"]
        claims = "%d/%d" % (claimed - len(broken), claimed) if claimed else "-"
        lines.append(
            "%-24s %10.3f %12.0f %7s"
            % (name, record["wall_s"], record["events_per_s"], claims)
        )
    total = report.get("total", {})
    lines.append("-" * len(header))
    lines.append(
        "%-24s %10.3f %12.0f"
        % ("TOTAL", total.get("wall_s", 0.0), total.get("events_per_s", 0.0))
    )
    return "\n".join(lines)
