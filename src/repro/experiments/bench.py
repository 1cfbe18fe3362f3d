"""Figure-benchmark harness: timed artifacts, result digests, perf reports.

This module is the measurement half of the simulation-kernel fast path: it
runs every paper artifact (Figures 2-8, Table 1, the ablations) at the same
laptop scale as the ``benchmarks/`` suite, plus a 100-peer "paper-scale
smoke" scenario, and records for each one

* the wall-clock time,
* the simulation throughput (events processed per second of wall-clock),
* the process peak RSS, and
* a SHA-256 **result digest** over the artifact's full row payload.

The digests make performance work falsifiable: every optimization of the
engine, network, or protocol hot paths must reproduce the committed digests
in ``benchmarks/bench_baseline.json`` bit for bit (``repro-experiments bench``
fails otherwise), so a speedup can never silently change experiment results.

Every measurement goes through one artifact runner (:func:`_run_artifact`);
:func:`run_bench` reports it per artifact and :func:`run_comparison` pairs
it off/on for the ``--record-compare`` / ``--telemetry-compare`` /
``--fork-compare`` modes.  Timing the repository as a whole is the job of
the top-level ``perf/`` package (``BENCHMARK.json``); this module is the
digest gate and the feature A/B.
"""

from __future__ import annotations

import json
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
# digest_rows/digest_rows_iter live beside export_rows; tests and docs still
# name them here, so they stay importable from this module.
from ..api.resultset import digest_rows, digest_rows_iter, export_rows  # noqa: F401
from ..api.scenario import AdversarySpec, Scenario
from ..api.store import ResultStore
from ..config import ProtocolConfig, SimulationConfig
from ..crypto.hashing import NONCE_STREAM_VERSION
from . import ablation as ablation_module
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
    n_peers: int = 100,
    seeds: Sequence[int] = BENCH_SEEDS,
) -> Scenario:
    """A 100-peer pipe-stoppage smoke test at paper-scale population.

    Short horizon, single AU: the point is to exercise the kernel at the
    paper's population size (100 peers), not to regenerate a figure.
    """
    protocol, sim = bench_configs(duration=units.months(6))
    sim = sim.with_overrides(
        n_peers=n_peers,
        initial_reference_list_size=min(30, n_peers - 1),
        friends_list_size=min(5, n_peers - 1),
    )
    scenario = Scenario.from_configs(
        "paper-scale-smoke",
        protocol,
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
# Every artifact is a *campaign factory*: the figure's parameter grid as a
# declarative :class:`Campaign` (named after the artifact, so
# ``repro-experiments campaign run fig2_baseline`` and ``campaign report
# --check-digest`` resolve it) at the laptop bench scale.


def _fig2_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return baseline_campaign(
        poll_intervals_months=(2.0, 3.0, 6.0, 12.0),
        storage_mtbf_years=(5.0,),
        collection_sizes=(1,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="fig2_baseline",
    )


def _fig3_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return pipe_stoppage_campaign(
        durations_days=(10.0, 60.0, 150.0),
        coverages=(0.4, 1.0),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        recuperation_days=30.0,
        name="fig3_pipe_stoppage",
    )


def _fig4_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return pipe_stoppage_campaign(
        durations_days=(10.0, 120.0),
        coverages=(1.0,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        recuperation_days=20.0,
        name="fig4_delay_ratio",
    )


def _fig5_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return pipe_stoppage_campaign(
        durations_days=(5.0, 120.0),
        coverages=(1.0,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        recuperation_days=20.0,
        name="fig5_friction",
    )


def _fig6_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return admission_flood_campaign(
        durations_days=(30.0, 200.0),
        coverages=(1.0,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        invitations_per_victim_per_day=6.0,
        name="fig6_admission",
    )


def _fig7_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return admission_flood_campaign(
        durations_days=(90.0, 200.0),
        coverages=(1.0,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        invitations_per_victim_per_day=6.0,
        name="fig7_admission_delay",
    )


def _fig8_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return admission_flood_campaign(
        durations_days=(200.0,),
        coverages=(0.4, 1.0),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        invitations_per_victim_per_day=8.0,
        name="fig8_admission_friction",
    )


def _table1_campaign() -> Campaign:
    from ..adversary.brute_force import DefectionPoint

    protocol, sim = bench_configs()
    return effortful_campaign(
        defections=(DefectionPoint.INTRO, DefectionPoint.REMAINING, DefectionPoint.NONE),
        collection_sizes=(1,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        attempts_per_victim_au_per_day=5.0,
        name="table1_effortful",
    )


def _ablation_admission_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return ablation_module.admission_ablation_campaign(
        attack_duration_days=120.0,
        coverage=1.0,
        invitations_per_victim_per_day=96.0,
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="ablation_admission",
    )


def _ablation_effort_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return ablation_module.effort_ablation_campaign(
        introductory_fractions=(0.20, 0.02),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        attempts_per_victim_au_per_day=5.0,
        name="ablation_effort",
    )


def _ablation_desync_campaign() -> Campaign:
    protocol, sim = bench_configs(n_aus=2)
    return ablation_module.desync_ablation_campaign(
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="ablation_desync",
    )


def _paper_smoke_campaign() -> Campaign:
    return Campaign.from_sweep(
        paper_smoke_scenario(), name="paper_smoke_100", exporter="attack_sweep"
    )


def _combined_attack_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return combined_attack_campaign(
        coverages=(0.4, 1.0),
        attack_duration_days=30.0,
        recuperation_days=30.0,
        invitations_per_victim_per_day=6.0,
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="combined_attack",
    )


def _adaptive_attack_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return adaptive_attack_campaign(
        thresholds=(0.05, 0.95),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="adaptive_attack",
    )


def _adversary_matrix_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return adversary_matrix_campaign(
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="adversary_matrix",
    )


def _delayed_attack_campaign() -> Campaign:
    # 18-month horizon with the strike at day 365: the adversary lurks for
    # two thirds of the archive's history, so the shared quiescent prefix
    # dominates and ``--fork-prefixes`` has real work to skip.
    protocol, sim = bench_configs(duration=units.months(18))
    return delayed_attack_campaign(
        coverages=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
        onset_day=365.0,
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="delayed_attack_sweep",
    )


def _churn_baseline_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return churn_baseline_campaign(
        churn_rates_per_year=(4.0, 12.0),
        mean_downtime_days=14.0,
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="churn_baseline",
    )


def _partition_attack_campaign() -> Campaign:
    protocol, sim = bench_configs()
    return partition_attack_campaign(
        partition_durations_days=(5.0, 20.0),
        partition_start_day=60.0,
        partition_fraction=0.4,
        attack_duration_days=120.0,
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
        name="partition_attack",
    )


#: Every measured artifact, in report order: name -> (title, campaign factory).
ARTIFACTS: Dict[str, Tuple[str, Callable[[], Campaign]]] = {
    "fig2_baseline": ("Figure 2 - baseline access failure", _fig2_campaign),
    "fig3_pipe_stoppage": ("Figure 3 - pipe stoppage access failure", _fig3_campaign),
    "fig4_delay_ratio": ("Figure 4 - pipe stoppage delay ratio", _fig4_campaign),
    "fig5_friction": ("Figure 5 - pipe stoppage friction", _fig5_campaign),
    "fig6_admission": ("Figure 6 - admission flood access failure", _fig6_campaign),
    "fig7_admission_delay": ("Figure 7 - admission flood delay ratio", _fig7_campaign),
    "fig8_admission_friction": (
        "Figure 8 - admission flood friction",
        _fig8_campaign,
    ),
    "table1_effortful": ("Table 1 - brute-force defection points", _table1_campaign),
    "ablation_admission": (
        "Ablation - admission control on/off",
        _ablation_admission_campaign,
    ),
    "ablation_effort": ("Ablation - introductory-effort toll", _ablation_effort_campaign),
    "ablation_desync": (
        "Ablation - desynchronized solicitation",
        _ablation_desync_campaign,
    ),
    "paper_smoke_100": (
        "Paper-scale smoke - 100 peers, pipe stoppage",
        _paper_smoke_campaign,
    ),
    "combined_attack": (
        "Combined attack - admission flood + effortful brute force",
        _combined_attack_campaign,
    ),
    "adaptive_attack": (
        "Adaptive attack - brute force escalating to pipe stoppage",
        _adaptive_attack_campaign,
    ),
    "adversary_matrix": (
        "Adversary matrix - 2x2 targeting x vector smoke grid",
        _adversary_matrix_campaign,
    ),
    "delayed_attack_sweep": (
        "Delayed attack - coverage sweep behind a 365-day quiescent prefix",
        _delayed_attack_campaign,
    ),
    "churn_baseline": (
        "Churn baseline - Poisson membership turnover, no adversary",
        _churn_baseline_campaign,
    ),
    "partition_attack": (
        "Partition attack - admission flood riding a partition window",
        _partition_attack_campaign,
    ),
}


def artifact_campaign(name: str) -> Campaign:
    """Build the named artifact's campaign definition."""
    if name not in ARTIFACTS:
        raise KeyError(
            "unknown bench artifact %r (known: %s)"
            % (name, ", ".join(sorted(ARTIFACTS)))
        )
    return ARTIFACTS[name][1]()

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
    title, factory = ARTIFACTS[name]
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
        campaign = factory()
        runner = CampaignRunner(session, fork_prefixes=variant == "fork")
        rows = export_rows(campaign.exporter, runner.run(campaign))
        wall = time.perf_counter() - started
        events = sum(
            run.extras.get("events_processed", 0.0)
            for run in session._run_cache.values()
        )
        record: Dict[str, object] = {
            "title": title,
            "wall_s": round(wall, 4),
            "events": int(events),
            "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
            "rows": len(rows),
            "digest": digest_rows(rows),
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
        raise ValueError("unknown bench artifacts: %s" % ", ".join(unknown))
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

    One schema for every mode: per artifact ``digest`` is the off side's
    (so :func:`check_digests` applies unchanged), ``digest_match`` asserts
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
    """Committed artifact -> digest map; None when no baseline exists yet."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    digests = payload.get("digests")
    if not isinstance(digests, dict):
        return None
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


def check_digests(
    report: Dict[str, object], baseline: Dict[str, str]
) -> List[str]:
    """Return drift messages for artifacts whose digests left the baseline."""
    problems: List[str] = []
    for name, record in report.get("artifacts", {}).items():
        expected = baseline.get(name)
        if expected is None:
            problems.append("%s: no committed baseline digest" % name)
        elif record["digest"] != expected:
            problems.append(
                "%s: digest %s != baseline %s"
                % (name, record["digest"][:16], expected[:16])
            )
    return problems


# -- report emission ------------------------------------------------------------------


def write_report(report: Dict[str, object], path: Path = DEFAULT_REPORT_PATH) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: Dict[str, object]) -> str:
    """Render a :func:`run_bench` report as an aligned text table."""
    header = "%-24s %10s %12s" % ("artifact", "wall_s", "events/s")
    lines = [header, "-" * len(header)]
    for name, record in report.get("artifacts", {}).items():
        lines.append(
            "%-24s %10.3f %12.0f" % (name, record["wall_s"], record["events_per_s"])
        )
    total = report.get("total", {})
    lines.append("-" * len(header))
    lines.append(
        "%-24s %10.3f %12.0f"
        % ("TOTAL", total.get("wall_s", 0.0), total.get("events_per_s", 0.0))
    )
    return "\n".join(lines)
