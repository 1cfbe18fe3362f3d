"""One round of one workload in a fresh process: set up, run, read back, verify.

``perf.run`` spawns this once per round, so every round pays what a user pays
on every CLI call (interpreter, imports, a new store) and reports it as
``setup_s``.  The last line of standard output is one JSON object.

Phases (each timed on its own):

* **set-up** — child spawn until ready to time: imports, workload generation,
  the temporary store and, for the fleet, ``serve`` answering ``/api/health``;
* **run** — first ``run``/``submit`` call until every point is complete and
  the rows are exported and digested;
* **read** — cold reports from the warm store or ``/rows`` fetches (the median
  of ten or more), or ``replay_trace`` over every recorded trace (the mean);
* **verify** (untimed) — the read-phase digests must equal the run-phase
  digest, and rows recomputed from the store must too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_import_started = time.perf_counter()
import repro.cli  # noqa: E402,F401 - timed: what every CLI call pays
from repro.api import CampaignRunner, Session, canonical_json, export_rows  # noqa: E402
from repro.api.store import open_store  # noqa: E402
from repro.replay import replay_trace  # noqa: E402
from repro.service.worker import HttpBrokerClient  # noqa: E402

#: ``cli.import_s``: importing the CLI and everything the harness drives.
IMPORT_S = time.perf_counter() - _import_started

from .workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Cold reports (or ``/rows`` fetches) per read phase: at least MIN_REPORTS,
#: then more until the phase has lasted REPORT_PHASE_S, so that a report of a
#: two-point store (well under a millisecond) is a median of thousands taken
#: over a second, not over the fifth of a second one busy neighbour can cover.
#: A traced round makes exactly MIN_REPORTS, so that its counts repeat and the
#: read phase keeps its share of the ledger; so does a ``smoke`` round.
MIN_REPORTS = 10
MAX_REPORTS = 5000
REPORT_PHASE_S = 1.0

#: ``worker --poll-interval``: a worker that finds every remaining point
#: leased sleeps this long before it asks again.  The default (0.5 s) is a
#: coin toss worth 15% of a 320-point drain -- whether the last two leases end
#: within one poll of each other -- and nothing next to a real campaign.
WORKER_POLL_S = 0.05


def rows_digest(rows: Sequence[Dict[str, object]]) -> str:
    """SHA-256 of the rows' canonical JSON (what ``/rows`` calls ``rows_digest``)."""
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


def cpu_seconds(live_pids: Sequence[int] = ()) -> float:
    """User+system CPU of this process, its reaped children and ``live_pids``."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in live_pids:
        try:
            with open("/proc/%d/stat" % pid, "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
        except (OSError, IndexError):
            continue  # already reaped: counted in children_user/system
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def tree_bytes(path: Path) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except OSError:
                continue  # a temp file renamed away between listing and stat
    return total


class Ops:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def points(self, campaign, completed: int) -> None:
        """One operation per campaign point; the missing ones failed."""
        self.attempted += len(campaign)
        self.failures.extend(
            "%s: a point did not complete" % campaign.name
            for _ in range(len(campaign) - completed)
        )


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # ``python -m repro.cli`` has no perf/__init__.py to put src/ on its path
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- executors -------------------------------------------------------------------------


class SessionExecutor:
    """``CampaignRunner(Session(store=<dir>))`` in this process."""

    def __init__(self, workload, tmp: Path, ops: Ops, traced: bool) -> None:
        self.workload = workload
        self.store_path = tmp / "store"
        self.ops = ops
        self.results = []

    def live_pids(self) -> List[int]:
        return []

    def run(self, campaigns) -> List[str]:
        runner = CampaignRunner(
            Session(store=open_store(self.store_path), record=self.workload.record)
        )
        digests = []
        for campaign in campaigns:
            result_set = runner.run(campaign)
            rows = export_rows(campaign.exporter, result_set)
            self.ops.points(campaign, len(rows))
            digests.append(rows_digest(rows))
            self.results.append((campaign, result_set))
        return digests

    def report(self, campaigns) -> List[str]:
        """A cold report: new session on the warm store, lazy rows, digest."""
        runner = CampaignRunner(Session(store=open_store(self.store_path)))
        return [rows_digest(runner.rows(campaign)) for campaign in campaigns]

    def trace_paths(self) -> List[Path]:
        return open_store(self.store_path).trace_paths()

    def stored_results(self, campaigns):
        return self.results

    def disk_bytes(self) -> int:
        return tree_bytes(self.store_path)

    def close(self) -> None:
        pass


class FleetExecutor:
    """``repro.cli serve`` + ``repro.cli worker`` subprocesses over HTTP.

    One submitting connection (this process) and ``min(2, nproc)`` workers,
    each holding one lease.  Under tracing the same commands start through
    ``perf.launch``, which installs the wrappers in those processes.
    """

    def __init__(self, workload, tmp: Path, ops: Ops, traced: bool) -> None:
        self.ops = ops
        self.tmp = tmp
        self.traced = traced
        self.store_path = tmp / "fleet.db"
        self.workers = min(2, os.cpu_count() or 1)
        self.digests: List[str] = []
        self.serve_log = tmp / "serve.log"
        self.processes: List[subprocess.Popen] = []
        self.serve = self._spawn(
            "serve", ["serve", "--store", str(self.store_path), "--port", "0"]
        )
        try:
            self.client = HttpBrokerClient(self._wait_for_url())
        except BaseException:
            self.close()
            raise

    def _spawn(self, role: str, argv: List[str]) -> subprocess.Popen:
        if self.traced:
            command = [
                sys.executable, "-m", "perf.launch",
                "--trace-out", str(self.tmp / ("%s.json" % role)),
            ] + argv
        else:
            command = [sys.executable, "-m", "repro.cli"] + argv
        with open(self.tmp / ("%s.log" % role), "wb") as log:
            process = subprocess.Popen(
                command, cwd=str(ROOT), env=child_env(),
                stdout=log, stderr=subprocess.STDOUT,
            )
        self.processes.append(process)
        return process

    def _wait_for_url(self, timeout: float = 60.0) -> str:
        """``serve --port 0`` prints its address; then ``/api/health`` must answer."""
        deadline = time.monotonic() + timeout
        url = None
        while time.monotonic() < deadline:
            if self.serve.poll() is not None:
                break
            if url is None:
                match = re.search(
                    r"http://[\w.]+:\d+", self.serve_log.read_text(errors="replace")
                )
                url = match.group(0) if match else None
            if url is not None:
                try:
                    with urllib.request.urlopen(url + "/api/health", timeout=5) as reply:
                        if reply.status == 200:
                            return url
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError(
            "serve did not come up: %s" % self.serve_log.read_text(errors="replace")
        )

    def live_pids(self) -> List[int]:
        return [self.serve.pid]

    def _request(self, method: str, path: str, payload=None) -> Dict[str, object]:
        try:
            reply = self.client.request(method, path, payload)
        except (RuntimeError, OSError, ValueError) as error:
            self.ops.check(False, "%s %s: %s" % (method, path, error))
            raise
        self.ops.check(True, path)
        return reply

    def run(self, campaigns) -> List[str]:
        digests = []
        for campaign in campaigns:
            status = self._request("POST", "/api/campaigns", campaign.to_dict())
            digest = str(status["digest"])
            self.digests.append(digest)
            workers = [
                self._spawn(
                    "worker%d" % index,
                    [
                        "worker", "--connect", self.client.base_url,
                        "--id", "w%d" % index, "--poll-interval", str(WORKER_POLL_S),
                    ],
                )
                for index in range(self.workers)
            ]
            for index, worker in enumerate(workers):
                code = worker.wait()
                self.ops.check(code == 0, "worker w%d exited with %d" % (index, code))
            reply = self._request("GET", "/api/campaigns/%s/rows" % digest)
            rows = reply["rows"]
            self.ops.points(campaign, len(rows))
            self.ops.check(
                rows_digest(rows) == reply["rows_digest"],
                "%s: served rows_digest does not match the served rows" % campaign.name,
            )
            digests.append(str(reply["rows_digest"]))
        return digests

    def report(self, campaigns) -> List[str]:
        return [
            str(self._request("GET", "/api/campaigns/%s/rows" % digest)["rows_digest"])
            for digest in self.digests
        ]

    def stored_results(self, campaigns):
        """The results as the SQLite store holds them, read without the server."""
        runner = CampaignRunner(Session(store=open_store(self.store_path)))
        return [(campaign, runner.result_set(campaign)) for campaign in campaigns]

    def disk_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in self.tmp.glob("fleet.db*") if path.is_file()
        )

    def close(self) -> None:
        """Stop ``serve`` (and any worker a failure left behind) and wait."""
        # SIGINT, not SIGTERM: ``serve`` (and the traced launcher's dump) shut
        # down through KeyboardInterrupt.
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


EXECUTORS = {"session": SessionExecutor, "fleet": FleetExecutor}


# -- one round -------------------------------------------------------------------------


def simulated_events(results) -> int:
    """Events of every distinct run behind ``results`` (shared baselines once)."""
    seen: Dict[str, float] = {}
    for campaign, result_set in results:
        for point in result_set:
            scenario = point.scenario
            for baseline, runs in (
                (False, point.result.attacked_runs),
                (True, point.result.baseline_runs if scenario.adversary else []),
            ):
                for seed, run in zip(scenario.seeds, runs):
                    key = scenario.point_digest(seed, baseline=baseline)
                    seen[key] = run.extras["events_processed"]
    return int(sum(seen.values()))


def run_round(name: str, seed: int, scale: str, work_dir: Path,
              spawned_at: float, trace_out: Optional[Path]) -> Dict[str, object]:
    tracer = None
    if trace_out is not None:
        from . import trace

        tracer = trace.install()

    workload = WORKLOADS[name]
    ops = Ops()
    work_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="%s-" % name, dir=str(work_dir)))
    executor = None
    try:
        campaigns = workload.campaigns(seed, scale)
        executor = EXECUTORS[workload.executor](workload, tmp, ops, tracer is not None)
        if tracer is not None:
            tracer.reset()
        setup_s = time.time() - spawned_at

        # -- run phase
        window_start = time.time()
        cpu_start = cpu_seconds(executor.live_pids())
        started = time.perf_counter()
        run_digests = executor.run(campaigns)
        wall_s = time.perf_counter() - started
        cpu_s = cpu_seconds(executor.live_pids()) - cpu_start
        disk = executor.disk_bytes()
        run_ledger = tracer.snapshot() if tracer is not None else None

        # -- read phase
        read_digests: List[List[str]] = []
        records = 0
        if workload.read_phase == "replay":
            started = time.perf_counter()
            paths = executor.trace_paths()
            for path in paths:
                try:
                    records += replay_trace(path).records_checked
                    ops.check(True, path.name)
                except Exception as error:  # noqa: BLE001 - every divergence is a failed op
                    ops.check(False, "replay of %s: %s" % (path.name, error))
            # traces differ in length, so the mean: seconds per verified trace
            reports = len(paths)
            report_s = (time.perf_counter() - started) / max(1, reports)
        else:
            durations: List[float] = []
            phase_started = time.perf_counter()
            while len(durations) < MIN_REPORTS or (
                tracer is None
                and scale == "full"
                and time.perf_counter() - phase_started < REPORT_PHASE_S
                and len(durations) < MAX_REPORTS
            ):
                started = time.perf_counter()
                read_digests.append(executor.report(campaigns))
                durations.append(time.perf_counter() - started)
            reports = len(durations)
            report_s = statistics.median(durations)
        window_end = time.time()
        full_ledger = tracer.snapshot() if tracer is not None else None

        # -- verify (untimed)
        for digests in read_digests:
            ops.check(digests == run_digests, "read-phase rows digest differs from the run's")
        results = executor.stored_results(campaigns)
        ops.check(
            [rows_digest(result_set.rows()) for _, result_set in results] == run_digests,
            "rows recomputed from the store differ from the run's",
        )
        points = sum(len(campaign) for campaign in campaigns)
        events = simulated_events(results)
        polls = [0, 0]
        runs_requested = 0
        for _, result_set in results:
            for point in result_set:
                runs = point.result.attacked_runs + point.result.baseline_runs
                runs_requested += len(runs)
                for run in runs:
                    polls[0] += run.successful_polls
                    polls[1] += run.failed_polls + run.inconclusive_polls
        probes = None
        if tracer is not None:
            from .probes import run_probes

            probes = run_probes(tracer, tmp)
    finally:
        if executor is not None:
            executor.close()
        ledgers = _collect_ledgers(tmp) if tracer is not None else {}
        shutil.rmtree(tmp, ignore_errors=True)

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "report_s": report_s,
        "peak_rss_mb": usage / 1024.0,
        "disk_mb": disk / (1024.0 * 1024.0),
        "points": points,
        "events": events,
        "work": events if workload.work == "events" else points,
        "work_unit": workload.work,
        "reports": reports,
        "import_s": IMPORT_S,
        "rows_digest": hashlib.sha256("".join(run_digests).encode("ascii")).hexdigest(),
        "attempted": ops.attempted,
        "failures": ops.failures,
    }
    if tracer is not None:
        ledgers["harness"] = [full_ledger]
        out["trace"] = {
            "window": [window_start, window_end],
            "ledgers": ledgers,
            "run_phase_builds": run_ledger["targets"]
            .get("experiments.world.build_world", {})
            .get("calls", 0),
            "probes": probes,
            "records": records,
            "runs_requested": runs_requested,
            "polls": polls,
        }
    return out


def _collect_ledgers(tmp: Path) -> Dict[str, List[Dict[str, object]]]:
    """The dumps ``perf.launch`` left for the fleet's server and workers."""
    ledgers: Dict[str, List[Dict[str, object]]] = {}
    for path in sorted(tmp.glob("*.json")):
        role = "server" if path.stem == "serve" else "workers"
        with open(path, "r", encoding="utf-8") as handle:
            ledgers.setdefault(role, []).append(json.load(handle))
    return ledgers


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--work-dir", type=Path, default=ROOT / "perf" / ".work")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    result = run_round(
        args.workload, args.seed, args.scale, args.work_dir, spawned_at, args.trace_out
    )
    if args.trace_out is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(result.pop("trace"), handle)
        result["trace_out"] = str(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
