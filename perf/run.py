"""The benchmark's one command.

``python3 -m perf.run --workload W --seed N --seconds S --trace 0|1`` measures
one workload for about S seconds and prints one JSON object as the last line
of standard output: every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``), plus ``correct``/``attempted``/``failed``.

Without ``--workload`` it measures all five, ``--repeats`` times each and
round-robin across workloads (run *r* uses seed ``--seed + r``), prints every
metric by name with its unit, and writes the set to ``--out`` for
``perf.compare``.

A measurement is a closed loop of *rounds*: each round is a fresh
``perf.run_one`` child, one at a time, doing the same work for the same seed.
Rounds repeat until the time budget is spent (at least two, so the outputs of
one run can be checked against each other); timings are medians over rounds.
End-to-end numbers come from untraced rounds only.  With tracing, untraced and
traced rounds alternate and the traced ones produce the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import ledger
from .layers import PER_LAYER
from .run_one import ROOT, child_env  # imports repro: fails where src/ is absent
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = tuple(WORKLOADS)

#: ``(name, unit, better)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("report_s", "s", "lower"),
    ("disk_mb", "MiB", "lower"),
)

#: Rounds per measurement, whatever the time budget: two outputs to compare.
MIN_ROUNDS = 2
#: One round may not take longer than this (the whole command has 180 s).
ROUND_TIMEOUT_S = 150
EXPECTED_SEED = 1


class RoundFailed(Exception):
    """A round's child exited non-zero or printed no result."""


def run_round(
    workload: str, seed: int, scale: str, work_dir: Path, trace_out: Optional[Path] = None
) -> Dict[str, object]:
    """Spawn one ``perf.run_one`` child and return what it printed."""
    command = [
        sys.executable, "-m", "perf.run_one", workload,
        "--seed", str(seed), "--scale", scale, "--work-dir", str(work_dir),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(
            command, cwd=str(ROOT), env=child_env(), capture_output=True,
            text=True, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RoundFailed("%s round exceeded %d s" % (workload, ROUND_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RoundFailed(
            "%s round exited with %d: %s"
            % (workload, done.returncode, done.stderr.strip()[-2000:])
        )
    return json.loads(lines[-1])


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(HERE / "expected.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_rounds(
    workload: str, rounds: List[Dict[str, object]], seed: int, scale: str,
    check_expected: bool,
) -> Tuple[int, List[str]]:
    """Operations attempted and the failures among them, over a run's rounds.

    Every round of one run did the same work, so besides each round's own
    failures, the rounds must agree with each other and, at the pinned seed,
    with ``expected.json``.
    """
    attempted = 0
    failures: List[str] = []
    for result in rounds:
        attempted += int(result["attempted"])
        failures.extend("%s: %s" % (workload, reason) for reason in result["failures"])
    first = rounds[0]
    for key in ("rows_digest", "events", "points"):
        for result in rounds[1:]:
            attempted += 1
            if result[key] != first[key]:
                failures.append(
                    "%s: rounds disagree on %s (%r != %r)"
                    % (workload, key, result[key], first[key])
                )
    if check_expected and seed == EXPECTED_SEED and scale == "full":
        expected = load_expected().get(workload)
        attempted += 1
        if expected is None:
            failures.append("%s: no entry in perf/expected.json" % workload)
        else:
            for key in ("rows_digest", "events"):
                if first[key] != expected[key]:
                    failures.append(
                        "%s: %s is %r, perf/expected.json pins %r"
                        % (workload, key, first[key], expected[key])
                    )
    return attempted, failures


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    scale: str = "full",
    work_dir: Optional[Path] = None,
    trace_out: Optional[Path] = None,
    check_expected: bool = True,
) -> Dict[str, object]:
    """Measure one workload; the result carries metrics, checks and rounds."""
    work_dir = work_dir if work_dir is not None else HERE / ".work"
    work_dir.mkdir(parents=True, exist_ok=True)
    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
        trace_path = trace_out / ("%s.json" % workload)
    else:
        trace_path = work_dir / ("trace-%s-%d.json" % (workload, os.getpid()))
    untraced: List[Dict[str, object]] = []
    traced_rounds: List[Dict[str, object]] = []
    failures: List[str] = []
    attempted = 0
    started = time.monotonic()
    while (
        len(untraced) + len(traced_rounds) + len(failures) < MIN_ROUNDS
        or time.monotonic() - started < seconds
    ):
        want_trace = traced and len(traced_rounds) < len(untraced)
        try:
            result = run_round(
                workload, seed, scale, work_dir, trace_path if want_trace else None
            )
        except RoundFailed as error:
            attempted += 1
            failures.append(str(error))
            if len(failures) >= MIN_ROUNDS:
                break
            continue
        (traced_rounds if want_trace else untraced).append(result)
    rounds = untraced + traced_rounds
    if not untraced or (traced and not traced_rounds):
        raise RoundFailed("; ".join(failures) or "no round completed")

    checked, problems = check_rounds(workload, rounds, seed, scale, check_expected)
    attempted += checked
    failures += problems
    first = rounds[0]

    def median(key: str) -> float:
        return statistics.median(float(result[key]) for result in untraced)

    measurement: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "rounds": len(untraced),
        "attempted": attempted,
        "failures": failures,
        "rows_digest": first["rows_digest"],
        "events": first["events"],
        "points": first["points"],
        "work_unit": first["work_unit"],
        "metrics": {
            "wall_s": median("wall_s"),
            "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in untraced),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "setup_s": median("setup_s"),
            "report_s": median("report_s"),
            "disk_mb": median("disk_mb"),
        },
    }
    if traced:
        with open(trace_path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        if trace_out is None:
            trace_path.unlink()
        measurement["traced_rounds"] = len(traced_rounds)
        measurement["layers"] = ledger.per_layer_metrics(
            trace, traced_rounds[-1], median("wall_s")
        )
        measurement["layer_shares"] = ledger.layer_shares(trace["ledgers"])
        measurement["unresolved_targets"] = ledger.unresolved_targets(trace["ledgers"])
    try:
        work_dir.rmdir()  # leaves nothing behind unless a round still owns a dir
    except OSError:
        pass
    return measurement


def result_line(measurement: Dict[str, object], traced: bool) -> str:
    """The contract's last line of output."""
    names = PER_LAYER if traced else END_TO_END
    values = measurement["layers"] if traced else measurement["metrics"]
    failed = len(measurement["failures"])
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": max(1, int(measurement["attempted"])),
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit, _ in names
            },
        }
    )


def print_measurement(measurement: Dict[str, object]) -> None:
    print(
        "%s  seed %d  %d rounds  %d points  %d events  rows %s"
        % (
            measurement["workload"], measurement["seed"], measurement["rounds"],
            measurement["points"], measurement["events"],
            str(measurement["rows_digest"])[:12],
        )
    )
    for name, unit, _ in END_TO_END:
        if name == "work_per_s":
            unit = "%s/s" % measurement["work_unit"]
        print("  %-44s %16.6f %s" % (name, measurement["metrics"][name], unit))
    if "layers" in measurement:
        for name, unit, _ in PER_LAYER:
            print("  %-44s %16.6f %s" % (name, measurement["layers"][name], unit))
        for role, shares in measurement["layer_shares"].items():
            top = ", ".join(
                "%s %.1f%%" % (layer, 100 * share) for layer, share in list(shares.items())[:6]
            )
            print("  self-time shares, %s: %s" % (role, top))
        for name in measurement["unresolved_targets"]:
            print("  UNRESOLVED TARGET %s" % name)
    for reason in measurement["failures"]:
        print("  FAILED %s" % reason)


def run_all(args: argparse.Namespace) -> int:
    """All workloads, ``--repeats`` runs each, interleaved; write ``--out``."""
    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in WORKLOAD_NAMES}
    failed = 0
    for repeat in range(args.repeats):
        for name in WORKLOAD_NAMES:
            measurement = measure(
                name, args.seed + repeat, args.seconds, scale=args.scale,
                check_expected=not args.update_expected,
            )
            print_measurement(measurement)
            failed += len(measurement["failures"])
            runs[name].append(measurement)
    traced: Dict[str, Dict[str, object]] = {}
    if args.trace:
        for name in WORKLOAD_NAMES:
            measurement = measure(
                name, args.seed, args.seconds, traced=True, scale=args.scale,
                trace_out=args.trace_out, check_expected=not args.update_expected,
            )
            print_measurement(measurement)
            failed += len(measurement["failures"])
            traced[name] = measurement
    if args.out is not None:
        report = {
            "schema_version": 1,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "runs": runs,
            "traced": traced,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.update_expected:
        if failed or args.seed != EXPECTED_SEED or args.scale != "full":
            print("not updating perf/expected.json: needs a clean full-size run at seed 1")
            return 1
        expected = {
            name: {key: group[0][key] for key in ("rows_digest", "events", "points")}
            for name, group in runs.items()
        }
        with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="directory that keeps each workload's spans and ledgers")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    measurement = measure(
        args.workload, args.seed, args.seconds, traced=bool(args.trace),
        scale=args.scale, trace_out=args.trace_out,
    )
    print_measurement(measurement)
    print(result_line(measurement, bool(args.trace)))
    return 1 if measurement["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
