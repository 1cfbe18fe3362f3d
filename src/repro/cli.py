"""Command-line interface for running the reproduction experiments.

Installed as the ``repro-experiments`` console script (also runnable as
``python -m repro.cli``).  Everything runs through ``campaign run``: the
paper's figures, Table 1 and the defense ablations by bench artifact name
(``campaign run fig2_baseline``) or as campaign JSON files (the
``examples/campaigns/laptop_*.json`` files hold each figure at laptop scale),
and any scenario JSON file (see ``repro.api.Scenario``, ``faults`` plans
included; docs/FAULTS.md) as a one-point campaign.  The subcommands:

* ``campaign``        — declarative parameter-grid campaigns
  (``run`` / ``status`` / ``report`` over a campaign or scenario JSON file
  or a named bench artifact, plus ``submit`` to a running service); with
  ``--store``, running a campaign again resumes it from the digest-keyed
  store, and points that timed out or crashed (marked failed in the
  manifest) are executed again; ``status --json`` emits the
  machine-readable payload the service's status endpoint shares
* ``store``           — store housekeeping (``stats`` per-kind counts and
  bytes, ``prune`` torn temp files or one artifact kind, ``clear``
  everything, ``migrate`` a JSON-file store into a SQLite one); every
  ``--store`` flag accepts either a directory or a ``.db`` SQLite file
  (see docs/SERVICE.md)
* ``serve``           — the campaign execution service: an HTTP JSON API
  over one SQLite store that queues campaigns and leases points to workers
* ``worker``          — a work-stealing worker loop, either sharing the
  service's SQLite store (``--store results.db``) or fully remote over
  HTTP (``--connect http://host:port``)
* ``replay``          — verify a recorded trace by re-running it (or list its
  records with ``--kinds``/``--peer``/``--from``/``--until`` filters)
* ``bisect``          — localize the first divergent record of two traces
* ``checkpoint``      — run a scenario point to a mid-run instant and save a
  resumable full-state checkpoint
* ``fork``            — resume a checkpoint, optionally unleashing a fresh
  adversary mid-timeline (prefix forking)
* ``list-adversaries``— the registered attack strategies
* ``bench``           — the figure-benchmark suite with result-digest checks
  against the committed baseline, emitting the ``BENCH_PR2.json`` trajectory

``campaign run`` and ``worker`` accept ``--workers`` (parallel
multi-seed/multi-point execution on a process pool); the ``campaign`` verbs
that execute or read points take ``--store`` (digest-keyed persistent result
artifacts).  A verb that fails as expected prints one ``<verb>: <message>``
line on stderr and exits 1 (a failed run or check), 2 (bad usage or input)
or 3 (a service that cannot be reached); see :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import units
from .api import (
    DEFAULT_REGISTRY,
    Campaign,
    CampaignRunner,
    Scenario,
    Session,
    export_rows,
)
from .api.resultset import digest_rows
from .api.store import open_store, sqlite_path
from .experiments.reporting import format_table

#: Exit statuses (README, "Exit statuses"): a run or check that failed, bad
#: usage or refused input, and a service that cannot be reached.
FAILED, USAGE, UNREACHABLE = 1, 2, 3


class CliError(Exception):
    """An expected failure of a verb: ``main`` prints ``<verb>: <message>``
    on stderr and exits with ``status``."""

    def __init__(self, message: str, status: int = USAGE) -> None:
        super().__init__(message)
        self.status = status


#: The other expected failures, by the qualified name of a class they derive
#: from: the exit status of each (a 4xx from the service is refused input, a
#: 5xx a failure).  Names, not imports: ``import repro.cli`` must not load
#: the replay stack (gzip, pickle) into every verb to name its errors.
EXPECTED = {
    "builtins.FileNotFoundError": USAGE,
    "builtins.NotADirectoryError": USAGE,
    "builtins.PermissionError": USAGE,
    "repro.api.campaign.IncompleteCampaign": USAGE,
    "repro.api.store.ArtifactKindError": USAGE,
    "repro.experiments.bench.BaselineError": FAILED,
    "repro.replay.checkpoint.CheckpointError": FAILED,
    "repro.replay.replay.ReplayDivergence": FAILED,
    "repro.replay.replay.ReplayError": FAILED,
    "repro.replay.signature.SignatureMismatch": FAILED,
    "repro.service.http_api.ListenError": USAGE,
    "repro.service.worker.ServiceError": (
        lambda error: USAGE if error.status < 500 else FAILED
    ),
    "repro.service.worker.ServiceUnreachable": UNREACHABLE,
}


def _exit_status(error: Exception) -> Optional[int]:
    """The exit status of an expected failure; None for a bug."""
    if isinstance(error, CliError):
        return error.status
    for cls in type(error).__mro__:
        status = EXPECTED.get("%s.%s" % (cls.__module__, cls.__qualname__))
        if status is not None:
            return status(error) if callable(status) else status
    return None


def _print_rows(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> None:
    print(format_table(columns, [[row.get(column) for column in columns] for row in rows]))


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments import bench as bench_module

    names = args.artifacts.split(",") if args.artifacts else None
    known = bench_module.artifact_names()
    unknown = [name for name in names or () if name not in known]
    if unknown:
        raise CliError(
            "unknown bench artifact(s) %s (known artifacts: %s)"
            % (", ".join(unknown), ", ".join(known))
        )
    comparison = bench_module.COMPARISONS.get(args.compare)
    if comparison is None:
        report = bench_module.run_bench(names=names, quick=args.quick)
        print(bench_module.format_report(report))
        default_out = str(bench_module.DEFAULT_REPORT_PATH)
    else:
        report = bench_module.run_comparison(
            args.compare, names=names, quick=args.quick, repeats=args.repeats
        )
        print(bench_module.format_comparison(report))
        default_out = comparison.report

    # Write the report before any check so a failure still leaves the
    # artifact behind (CI uploads it for the post-mortem).
    out = default_out if args.out is None else args.out
    if out:
        bench_module.write_report(report, Path(out))
        print("performance report written to %s" % out)

    if comparison is not None:
        feature = comparison.what.upper()
        perturbed = [
            name
            for name, record in report["artifacts"].items()
            if not record["digest_match"]
        ]
        if perturbed:
            raise CliError(
                "%s PERTURBED RESULTS — on-side digests differ for: %s"
                % (feature, ", ".join(perturbed)),
                FAILED,
            )
        ratio = report["total"]["ratio"]
        if args.max_overhead is not None and ratio is not None:
            overhead = (ratio - 1.0) * 100.0
            if overhead > args.max_overhead:
                raise CliError(
                    "%s OVERHEAD %.1f%% exceeds the %.1f%% budget"
                    % (feature, overhead, args.max_overhead),
                    FAILED,
                )

    # Claims are judged whatever the digest flags say: --no-check skips the
    # digest comparison only, and --update-baseline still writes the new
    # digests while the exit code says the move broke a claim.
    baseline_path = Path(args.baseline)
    if args.update_baseline:
        bench_module.save_baseline(report, baseline_path)
        print("digest baseline written to %s" % baseline_path)
    checked = args.check and not args.update_baseline
    _check(bench_module.judge(report["artifacts"], baseline_path if checked else None))
    if checked:
        print("all result digests match the committed baseline")
    return 0


def _check(problems: Sequence[str]) -> None:
    """Fail on what :func:`repro.experiments.bench.judge` found, if anything."""
    if problems:
        raise CliError(
            "RESULT CHECK FAILED — digest drift or a broken paper claim:\n  "
            + "\n  ".join(problems),
            FAILED,
        )


def _read_spec(path: str, parse):
    """``parse`` the JSON object in the file at ``path``; refuse a malformed
    one (a missing file raises ``FileNotFoundError``)."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as error:
        raise CliError("malformed spec %s: %s: %s" % (path, type(error).__name__, error))


def _campaign_of(payload: Dict[str, object]) -> Campaign:
    """A campaign when the object has a ``scenario`` key, else a scenario,
    run as a one-point campaign."""
    if "scenario" in payload:
        return Campaign.from_dict(payload)
    scenario = Scenario.from_dict(payload)
    return Campaign(scenario.name, scenario)


def _load_campaign(reference: str) -> Campaign:
    """Resolve a campaign reference: a campaign or scenario JSON file, or a
    bench artifact name."""
    if Path(reference).exists():
        return _read_spec(reference, _campaign_of)
    from .experiments import bench as bench_module

    try:
        artifact = bench_module.load_artifact(reference)
    except KeyError:
        raise CliError(
            "no campaign file %r and no bench artifact of that name "
            "(known artifacts: %s)"
            % (reference, ", ".join(bench_module.artifact_names()))
        ) from None
    return bench_module.campaign_of(artifact)


def _campaign_runner(args: argparse.Namespace) -> CampaignRunner:
    """The runner ``campaign run`` executes through, over its ``--store``."""
    if args.record and not args.store:
        raise CliError("--record needs --store (traces are store artifacts)")
    if args.record and args.fork_prefixes:
        raise CliError(
            "--record and --fork-prefixes exclude each other: prefix-forked "
            "runs leave no full-run trace"
        )
    session = Session(
        workers=args.workers or 1,
        store=open_store(args.store) if args.store else None,
        record=args.record,
        timeout=args.timeout,
        retries=max(1, args.retries or 1),
    )
    return CampaignRunner(session, fork_prefixes=args.fork_prefixes)


def _store_runner(reference: Optional[str]) -> CampaignRunner:
    """A runner that only reads the store at ``reference`` (None: no store)."""
    store = _existing_store(reference) if reference else None
    return CampaignRunner(Session(store=store))


def _print_campaign_rows(rows: Sequence[Dict[str, object]]) -> None:
    columns: List[str] = []
    for row in rows:
        columns.extend(key for key in row if key not in columns)
    _print_rows(rows, columns)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args.campaign)
    runner = _campaign_runner(args)
    aggregator = None
    if args.metrics:
        from .telemetry import EventBus, MetricsAggregator

        runner.session.telemetry = EventBus()
        aggregator = MetricsAggregator(runner.session.telemetry)
    results = runner.run(campaign, max_points=args.max_points)
    total = len(campaign)
    if len(results) < total:
        print(
            "%s: %d/%d points complete" % (campaign.name, len(results), total)
        )
        if runner.store is not None:
            print(
                "resume with: repro-experiments campaign run %s --store %s"
                % (args.campaign, args.store)
            )
        else:
            print("(no --store attached, nothing was checkpointed)")
    else:
        print(
            "Campaign %s (digest %s): %d points complete"
            % (campaign.name, campaign.digest[:12], len(results))
        )
        _print_campaign_rows(export_rows(campaign.exporter, results))
        if args.store:
            print("Results persisted under %s (digest-keyed JSON)." % args.store)
    if aggregator is not None:
        aggregator.pump()
        runs = {digest for point in campaign.expand() for _, _, digest in point.run_keys}
        coverage = "in-simulation counters cover %d of %d runs" % (
            aggregator.observed_runs,
            len(runs),
        )
        if aggregator.observed_runs < len(runs):
            print(
                "warning: %s: pooled (--workers), recorded and stored runs "
                "publish no in-simulation events" % coverage,
                file=sys.stderr,
            )
        print()
        print("# " + coverage)
        print(aggregator.registry.exposition(), end="")
    return FAILED if runner.failed else 0


def _render_status(payload: Dict[str, object]) -> str:
    """Render one campaign status payload (the :func:`status_dict` schema).

    The one renderer behind ``campaign status``, ``--watch``, and
    ``--connect`` — local manifests and the service's endpoint share the
    payload schema, so they share the drawing too.
    """
    counts = payload.get("counts", {}) or {}
    header = "%s: %d/%d points complete (campaign digest %s)" % (
        payload.get("name", "?"),
        counts.get("complete", 0),
        payload.get("total", 0),
        str(payload.get("digest", ""))[:12],
    )
    if counts.get("failed"):
        header += ", %d failed" % counts["failed"]
    if counts.get("leased"):
        header += ", %d leased" % counts["leased"]
    lines = [header]
    points = payload.get("points") or []
    if points:
        columns = ["index", "state", "digest", "label"]
        if any(point.get("worker") for point in points):
            columns.append("worker")
        rows = [
            {
                "index": point.get("index"),
                "state": point.get("state"),
                "digest": str(point.get("digest", ""))[:12],
                "label": point.get("label", ""),
                "worker": point.get("worker", ""),
            }
            for point in points
        ]
        lines.append(
            format_table(columns, [[row.get(col) for col in columns] for row in rows])
        )
    return "\n".join(lines)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args.campaign)
    connect = getattr(args, "connect", None)
    if connect:
        from .service.worker import HttpBrokerClient, ServiceError, ServiceUnreachable

        client = HttpBrokerClient(connect)
        digest = campaign.digest
        # What --watch rides out: the service restarting or answering late.
        transient = (ServiceError, ServiceUnreachable)

        def fetch() -> Dict[str, object]:
            return client.request("GET", "/api/campaigns/%s" % digest)

    else:
        runner = _store_runner(args.store)
        transient = ()

        def fetch() -> Dict[str, object]:
            return runner.status(campaign).to_dict()

    payload = fetch()
    if not getattr(args, "watch", False):
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(_render_status(payload))
        return 0

    # --watch: redraw until the campaign completes.  Locally (and as the
    # remote fallback) this polls at --interval; against a service it also
    # consumes the SSE stream, so a finishing point redraws immediately.
    import threading

    interval = max(0.2, float(getattr(args, "interval", 2.0)))
    wake = threading.Event()
    if connect:

        def consume_sse() -> None:
            import http.client
            import urllib.request

            url = connect.rstrip("/") + "/api/events?topics=campaign_progress"
            while True:
                try:
                    with urllib.request.urlopen(url, timeout=60) as response:
                        for line in response:
                            if line.startswith(b"data:"):
                                wake.set()
                except (OSError, http.client.HTTPException):
                    # Server gone or SSE unsupported; interval polling
                    # still drives the redraw.
                    return

        threading.Thread(target=consume_sse, daemon=True).start()
    note = ""
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            print(_render_status(payload))
            if note:
                print(note)
            if payload.get("complete"):
                return 0
            wake.wait(interval)
            wake.clear()
            try:
                payload, note = fetch(), ""
            except transient as error:
                # Keep the last payload on screen, retry next tick.
                note = "campaign status: %s (retrying)" % error
    except KeyboardInterrupt:
        return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args.campaign)
    rows = _store_runner(args.store).rows(campaign)
    digest = digest_rows(rows)
    print("Campaign %s report (%d rows)" % (campaign.name, len(rows)))
    _print_campaign_rows(rows)
    print("result digest: %s" % digest)
    if args.check_digest:
        from .experiments import bench as bench_module

        key = args.artifact or campaign.name
        claims = bench_module.evaluate_claims(key, rows)
        record = {"digest": digest, "claims": claims}
        _check(bench_module.judge({key: record}, Path(args.check_digest)))
        print("result digest matches the committed baseline for %r" % key)
        if claims["total"]:
            print("%d/%d paper claims hold on these rows" % ((claims["total"],) * 2))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .replay import filter_records, iter_records, replay_trace

    if args.list:
        kinds = args.kinds.split(",") if args.kinds else None
        start = units.days(args.start) if args.start is not None else None
        until = units.days(args.until) if args.until is not None else None
        rows = [
            {"kind": record[0], "time_days": record[1] / units.days(1), "fields": record[2:]}
            for record in filter_records(
                iter_records(args.trace), kinds=kinds, peer=args.peer,
                start=start, until=until,
            )
        ]
        print("%s: %d matching record(s)" % (args.trace, len(rows)))
        _print_rows(rows, ["kind", "time_days", "fields"])
        return 0
    report = replay_trace(args.trace)
    print(
        "replay OK: %d records verified, %d events, metrics digest %s"
        % (report.records_checked, report.events_processed, report.metrics_digest[:16])
    )
    if args.expect_digest and report.metrics_digest != args.expect_digest:
        raise CliError(
            "METRICS DIGEST MISMATCH: replayed %s != expected %s"
            % (report.metrics_digest, args.expect_digest),
            FAILED,
        )
    return 0


def _cmd_bisect(args: argparse.Namespace) -> int:
    from .replay import first_divergence

    divergence = first_divergence(args.trace_a, args.trace_b, context=args.context)
    if divergence is None:
        print("traces are identical")
        return 0
    print(divergence.describe())
    return FAILED


def _parse_adversary_params(text: Optional[str]) -> Dict[str, object]:
    if not text:
        return {}
    try:
        params = json.loads(text)
    except ValueError as error:
        raise CliError("--params must be a JSON object: %s" % error)
    if not isinstance(params, dict):
        raise CliError("--params must be a JSON object")
    return params


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .api.session import build_point_world
    from .replay import Checkpoint

    scenario = _read_spec(args.scenario, Scenario.from_dict)
    world = build_point_world(scenario, args.seed, baseline=args.baseline)
    horizon = world.sim_config.duration
    at = units.days(args.at_days) if args.at_days is not None else horizon / 2.0
    if at > horizon:
        raise CliError(
            "--at-days %.1f is past the scenario duration (%.1f days)"
            % (args.at_days, horizon / units.days(1))
        )
    world.run(until=at)
    checkpoint = Checkpoint.capture(world)
    checkpoint.save(args.out)
    print(
        "checkpoint of %s (seed %d%s) at %.1f days written to %s"
        % (
            scenario.name,
            args.seed,
            ", baseline" if args.baseline else "",
            checkpoint.time / units.days(1),
            args.out,
        )
    )
    return 0


def _cmd_fork(args: argparse.Namespace) -> int:
    from .replay import Checkpoint, metrics_digest

    checkpoint = Checkpoint.load(args.checkpoint)
    spec = None
    if args.adversary:
        spec = {"kind": args.adversary, "params": _parse_adversary_params(args.params)}
    world = checkpoint.fork(spec)
    until = units.days(args.until_days) if args.until_days is not None else None
    metrics = world.run(until=until)
    digest = metrics_digest(metrics)
    print(
        "forked from %.1f days%s, ran to %.1f days"
        % (
            checkpoint.time / units.days(1),
            " with adversary %r" % args.adversary if args.adversary else "",
            world.simulator.now / units.days(1),
        )
    )
    rows = [
        {
            "access_failure_probability": metrics.access_failure_probability,
            "successful_polls": metrics.successful_polls,
            "failed_polls": metrics.failed_polls,
            "adversary_effort": metrics.adversary_effort,
        }
    ]
    _print_rows(rows, list(rows[0]))
    print("metrics digest: %s" % digest)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"metrics": metrics.to_dict(), "digest": digest}, handle,
                indent=2, sort_keys=True,
            )
            handle.write("\n")
        print("fork metrics written to %s" % args.out)
    return 0


def _existing_store(reference: str):
    """Open the store a verb reads, refusing a path that does not exist.

    Opening a store creates it, so a mistyped path would otherwise
    "succeed" on a fresh empty store and leave it behind.
    """
    if not Path(reference.removeprefix("sqlite:")).exists():
        raise CliError("no store at %s" % reference)
    return open_store(reference)


def _sqlite_path(reference: str) -> Path:
    """The SQLite database ``serve`` and ``worker --store`` need; refuse any
    other reference before anything is opened, so nothing is created."""
    path = sqlite_path(reference)
    if path is None:
        raise CliError(
            "--store needs a SQLite store (results.db), not %s: the broker "
            "keeps its lease tables in the same database" % reference
        )
    return path


def _cmd_store_prune(args: argparse.Namespace) -> int:
    removed = _existing_store(args.store).prune(kind=args.kind)
    what = "temp files" if args.kind is None else "temp files and %r artifacts" % args.kind
    print("pruned %d item(s) (%s) from %s" % (removed, what, args.store))
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    totals = store.stats()
    if args.json:
        print(json.dumps(totals, indent=2, sort_keys=True))
        return 0
    rows = [
        {"kind": kind, "count": record["count"], "bytes": record["bytes"]}
        for kind, record in sorted(totals.items())
    ]
    print("Store %s (%s backend)" % (
        args.store,
        "sqlite" if type(store).__name__ == "SQLiteResultStore" else "directory",
    ))
    if not rows:
        print("(empty)")
        return 0
    _print_rows(rows, ["kind", "count", "bytes"])
    print(
        "total: %d artifact(s), %d bytes"
        % (
            sum(record["count"] for record in totals.values()),
            sum(record["bytes"] for record in totals.values()),
        )
    )
    return 0


def _cmd_store_clear(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    if not args.yes:
        raise CliError("removes every artifact in %s; pass --yes to confirm" % args.store)
    removed = store.clear()
    print("cleared %d item(s) from %s" % (removed, args.store))
    return 0


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    from .api.store import migrate_store

    source = _existing_store(args.source)
    dest = open_store(args.dest)
    if type(source) is type(dest) and str(args.source) == str(args.dest):
        raise CliError("source and destination are the same store")
    copied = migrate_store(source, dest)
    total = sum(copied.values())
    print(
        "migrated %d artifact(s) from %s to %s" % (total, args.source, args.dest)
    )
    for kind in sorted(copied):
        print("  %s: %d" % (kind, copied[kind]))
    return 0


def _cmd_campaign_submit(args: argparse.Namespace) -> int:
    from .service.worker import HttpBrokerClient

    campaign = _load_campaign(args.campaign)
    status = HttpBrokerClient(args.connect).submit(campaign.to_dict())
    counts = status.get("counts", {})
    print(
        "submitted %s to %s: campaign digest %s, %d point(s) "
        "(%d pending, %d complete, %d failed)"
        % (
            campaign.name,
            args.connect,
            str(status.get("digest", ""))[:12],
            status.get("total", 0),
            counts.get("pending", 0),
            counts.get("complete", 0),
            counts.get("failed", 0),
        )
    )
    print("drain it with: repro-experiments worker --connect %s" % args.connect)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service.http_api import make_server

    # Binds before it opens (and so creates) the database.
    server = make_server(
        _sqlite_path(args.store),
        host=args.host,
        port=args.port,
        lease_seconds=args.lease_seconds,
        on_event=print if args.verbose else None,
        dashboard=bool(getattr(args, "dashboard", False)),
    )
    store = server.service.store
    host, port = server.server_address[:2]
    print(
        "campaign execution service on http://%s:%d (store %s, lease %.0fs)"
        % (host, port, args.store, args.lease_seconds)
    )
    if getattr(args, "dashboard", False):
        print("dashboard: http://%s:%d/dashboard" % (host, port))
    print("submit:  repro-experiments campaign submit <campaign> --connect http://%s:%d" % (host, port))
    print("workers: repro-experiments worker --connect http://%s:%d" % (host, port))
    # SIGTERM (kill, systemd, docker) stops the service the way Ctrl-C does.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        # The last connection's close merges the WAL into the database file
        # and removes it: what is left is one self-contained file.
        store.close()
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _cmd_worker(args: argparse.Namespace) -> int:
    from .service.worker import HttpBrokerClient, LocalBrokerClient, Worker

    if bool(args.connect) == bool(args.store):
        raise CliError(
            "needs exactly one of --connect URL (remote service) or "
            "--store results.db (shared SQLite store)"
        )
    if args.connect:
        client = HttpBrokerClient(args.connect)
        # Remote workers run storeless: artifacts ship in the complete
        # request and the server persists them.
        session = Session(
            workers=args.workers or 1,
            timeout=args.timeout,
            retries=max(1, args.retries or 1),
        )
    else:
        from .service.broker import Broker
        from .service.sqlite_store import SQLiteResultStore

        path = _sqlite_path(args.store)
        if not path.exists():
            # A worker drains an existing queue: a mistyped path would
            # otherwise "succeed" on a fresh empty store and leave it behind.
            raise CliError("no store at %s" % args.store)
        store = SQLiteResultStore(path)
        client = LocalBrokerClient(Broker(store, lease_seconds=args.lease_seconds))
        session = Session(
            workers=args.workers or 1,
            store=store,
            record=bool(args.record),
            timeout=args.timeout,
            retries=max(1, args.retries or 1),
        )
    worker = Worker(
        client,
        session=session,
        worker_id=args.id,
        campaign=args.campaign,
        poll_interval=args.poll_interval,
        max_points=args.max_points,
        on_event=print,
        fork_prefixes=bool(args.fork_prefixes),
    )
    stats = worker.run()
    print(
        "worker %s done: %d completed, %d failed, %d stolen"
        % (stats["worker"], stats["completed"], stats["failed"], stats["stolen"])
    )
    return FAILED if stats["failed"] else 0


def _cmd_list_adversaries(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": entry.name,
            "description": entry.description,
            "defaults": ", ".join(
                "%s=%s" % (key, value) for key, value in sorted(entry.defaults.items())
            ),
        }
        for entry in DEFAULT_REGISTRY
    ]
    print("Registered adversaries")
    _print_rows(rows, ["name", "description", "defaults"])
    if getattr(args, "components", False):
        from .adversary.components import COMPONENT_REGISTRIES

        for category in ("targeting", "schedule", "vector", "adaptive"):
            registry = COMPONENT_REGISTRIES[category]
            print()
            print(
                "%s components (spec: {\"kind\": <name>, <param>: <value>, ...})"
                % category.capitalize()
            )
            component_rows = [
                {
                    "kind": record["kind"],
                    "description": record["description"],
                    "defaults": ", ".join(
                        "%s=%s" % (key, value)
                        for key, value in sorted(record["defaults"].items())
                    ) or "-",
                }
                for record in registry.catalog()
            ]
            _print_rows(component_rows, ["kind", "description", "defaults"])
        print()
        print(
            'Compose them as {"kind": "composed", "params": {"targeting": ..., '
            '"schedule": ..., "vectors": [...], "adaptive": ...}} in any '
            "scenario or campaign JSON (see docs/ADVERSARIES.md)."
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Attrition Defenses for a Peer-to-Peer "
            "Digital Preservation System' (LOCKSS, USENIX 2005) at a configurable scale."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="declarative parameter-grid campaigns (run/status/submit/report)",
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    def _campaign_common(sub: argparse.ArgumentParser, store_required=False) -> None:
        sub.add_argument(
            "campaign",
            help="a campaign or scenario JSON file, or a bench artifact "
            "name (e.g. fig2_baseline; see `bench`)",
        )
        sub.add_argument(
            "--store",
            required=store_required,
            metavar="PATH",
            help="persist per-run metrics as digest-keyed artifacts: "
            "a directory of JSON files, or a SQLite database when PATH ends in "
            ".db/.sqlite (see docs/SERVICE.md)",
        )

    campaign_run = campaign_sub.add_parser(
        "run",
        help="run a campaign (or one scenario), resuming from the store: "
        "only points whose runs are not stored are simulated",
    )
    _campaign_common(campaign_run)
    campaign_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run multi-seed/multi-point simulations on a process pool",
    )
    campaign_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop any single run still going SECONDS of wall clock after "
        "it started, serial or pooled (it is retried up to --retries "
        "times, then marked failed)",
    )
    campaign_run.add_argument(
        "--retries",
        type=int,
        default=1,
        help="attempts per point before it is marked failed (default 1)",
    )
    campaign_run.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="stop after executing N pending points (checkpoint + exit; "
        "finish later by running again with the same --store)",
    )
    campaign_run.add_argument(
        "--record", action="store_true",
        help="capture every computed run as a replay trace in the store "
        "(requires --store; see docs/REPLAY.md)",
    )
    campaign_run.add_argument(
        "--fork-prefixes", action="store_true",
        help="simulate each shared (baseline, seed) prefix once and fork "
        "the attack suffixes from its checkpoint — bit-identical results, "
        "less wall-clock; reuses the prefix checkpoints an earlier "
        "--fork-prefixes run persisted (see docs/CAMPAIGNS.md)",
    )
    campaign_run.add_argument(
        "--metrics", action="store_true",
        help="attach a telemetry bus to the runs and print the aggregated "
        "metrics exposition afterwards (see docs/TELEMETRY.md)",
    )
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_status = campaign_sub.add_parser(
        "status", help="show which campaign points the store already holds"
    )
    _campaign_common(campaign_status)
    campaign_status.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable status payload (same schema as the "
        "service's status endpoint)",
    )
    campaign_status.add_argument(
        "--watch",
        action="store_true",
        help="redraw the status table live until the campaign completes "
        "(Ctrl-C exits)",
    )
    campaign_status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval for --watch (default: 2s)",
    )
    campaign_status.add_argument(
        "--connect",
        default=None,
        metavar="URL",
        help="read status from a running execution service instead of a "
        "local store; with --watch, its SSE stream triggers immediate "
        "redraws",
    )
    campaign_status.set_defaults(func=_cmd_campaign_status)

    campaign_submit = campaign_sub.add_parser(
        "submit", help="queue a campaign on a running execution service"
    )
    campaign_submit.add_argument(
        "campaign",
        help="a campaign or scenario JSON file, or a bench artifact name "
        "(e.g. fig2_baseline)",
    )
    campaign_submit.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8642",
    )
    campaign_submit.set_defaults(func=_cmd_campaign_submit)

    campaign_report = campaign_sub.add_parser(
        "report", help="rebuild the figure rows (and digest) from the store"
    )
    _campaign_common(campaign_report, store_required=True)
    campaign_report.add_argument(
        "--check-digest",
        default=None,
        metavar="BASELINE",
        help="fail unless the row digest matches this bench baseline JSON "
        "(e.g. benchmarks/bench_baseline.json)",
    )
    campaign_report.add_argument(
        "--artifact",
        default=None,
        help="baseline key to compare against (default: the campaign name)",
    )
    campaign_report.set_defaults(func=_cmd_campaign_report)

    store_parser = subparsers.add_parser(
        "store", help="result-store housekeeping"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    store_prune = store_sub.add_parser(
        "prune",
        help="remove torn temp files (and optionally one artifact kind)",
    )
    store_prune.add_argument(
        "--store", required=True, metavar="PATH",
        help="the store to prune (directory or SQLite .db file)",
    )
    store_prune.add_argument(
        "--kind",
        default=None,
        help="also remove every artifact of this kind "
        "(runs, campaign, trace, checkpoint, or a stale result)",
    )
    store_prune.set_defaults(func=_cmd_store_prune)

    store_stats = store_sub.add_parser(
        "stats", help="per-kind artifact counts and byte totals"
    )
    store_stats.add_argument(
        "--store", required=True, metavar="PATH",
        help="the store to inspect (directory or SQLite .db file)",
    )
    store_stats.add_argument(
        "--json", action="store_true", help="emit the stats as JSON"
    )
    store_stats.set_defaults(func=_cmd_store_stats)

    store_clear = store_sub.add_parser(
        "clear", help="remove every artifact (both backends)"
    )
    store_clear.add_argument(
        "--store", required=True, metavar="PATH",
        help="the store to clear (directory or SQLite .db file)",
    )
    store_clear.add_argument(
        "--yes", action="store_true", help="confirm the deletion"
    )
    store_clear.set_defaults(func=_cmd_store_clear)

    store_migrate = store_sub.add_parser(
        "migrate",
        help="copy every artifact from one store into another "
        "(e.g. a JSON-file directory into a SQLite .db)",
    )
    store_migrate.add_argument("source", help="source store (directory or .db)")
    store_migrate.add_argument("dest", help="destination store (directory or .db)")
    store_migrate.set_defaults(func=_cmd_store_migrate)

    replay_parser = subparsers.add_parser(
        "replay",
        help="verify a recorded trace by re-running it, or list its records",
    )
    replay_parser.add_argument("trace", help="path to a trace-<digest>.jsonl.gz file")
    replay_parser.add_argument(
        "--list", action="store_true",
        help="print the (filtered) records instead of replaying",
    )
    replay_parser.add_argument(
        "--kinds", default=None,
        help="with --list: comma-separated record kinds (poll,adm,dmg,win,send,fault)",
    )
    replay_parser.add_argument(
        "--peer", default=None,
        help="with --list: only records involving this peer/node id",
    )
    replay_parser.add_argument(
        "--from", dest="start", type=float, default=None, metavar="DAYS",
        help="with --list: only records at or after this simulation day",
    )
    replay_parser.add_argument(
        "--until", type=float, default=None, metavar="DAYS",
        help="with --list: only records before this simulation day",
    )
    replay_parser.add_argument(
        "--expect-digest", default=None, metavar="DIGEST",
        help="additionally fail unless the replayed metrics digest equals DIGEST",
    )
    replay_parser.set_defaults(func=_cmd_replay)

    bisect_parser = subparsers.add_parser(
        "bisect", help="localize the first divergent record between two traces"
    )
    bisect_parser.add_argument("trace_a", help="first trace file")
    bisect_parser.add_argument("trace_b", help="second trace file")
    bisect_parser.add_argument(
        "--context", type=int, default=5,
        help="shared records to show before the divergence",
    )
    bisect_parser.set_defaults(func=_cmd_bisect)

    checkpoint_parser = subparsers.add_parser(
        "checkpoint",
        help="run a scenario point to a mid-run instant and save a checkpoint",
    )
    checkpoint_parser.add_argument("scenario", help="path to a point Scenario JSON file")
    checkpoint_parser.add_argument("--seed", type=int, default=1, help="master seed")
    checkpoint_parser.add_argument(
        "--baseline", action="store_true",
        help="ignore the scenario's adversary (baseline prefix for forking)",
    )
    checkpoint_parser.add_argument(
        "--at-days", type=float, default=None,
        help="simulation day to checkpoint at (default: half the duration)",
    )
    checkpoint_parser.add_argument(
        "--out", required=True, help="where to write the checkpoint file"
    )
    checkpoint_parser.set_defaults(func=_cmd_checkpoint)

    fork_parser = subparsers.add_parser(
        "fork",
        help="resume a checkpoint to completion, optionally with a new adversary",
    )
    fork_parser.add_argument("checkpoint", help="path to a saved checkpoint")
    fork_parser.add_argument(
        "--adversary", default=None,
        help="adversary kind to unleash at the fork point (see list-adversaries)",
    )
    fork_parser.add_argument(
        "--params", default=None,
        help='adversary parameters as a JSON object, e.g. \'{"coverage": 1.0}\'',
    )
    fork_parser.add_argument(
        "--until-days", type=float, default=None,
        help="run the fork to this simulation day (default: the full duration)",
    )
    fork_parser.add_argument(
        "--out", default=None, help="write the fork's metrics + digest as JSON"
    )
    fork_parser.set_defaults(func=_cmd_fork)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the campaign execution service (HTTP JSON API over a "
        "SQLite store; see docs/SERVICE.md)",
    )
    serve_parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="the service's SQLite store, e.g. results.db",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="bind port (default 8642)"
    )
    serve_parser.add_argument(
        "--lease-seconds", type=float, default=60.0,
        help="heartbeat budget before a worker's lease is re-claimable "
        "(default 60)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log requests and submissions"
    )
    serve_parser.add_argument(
        "--dashboard", action="store_true",
        help="serve the live telemetry dashboard at /dashboard "
        "(see docs/TELEMETRY.md)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    worker_parser = subparsers.add_parser(
        "worker",
        help="drain a service's campaign queue (work-stealing lease loop)",
    )
    worker_parser.add_argument(
        "--connect", default=None, metavar="URL",
        help="remote service base URL, e.g. http://127.0.0.1:8642",
    )
    worker_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="shared SQLite store file (local alternative to --connect)",
    )
    worker_parser.add_argument(
        "--id", default=None, help="worker id (default <hostname>-<pid>)"
    )
    worker_parser.add_argument(
        "--campaign", default=None, metavar="DIGEST",
        help="only lease points of this campaign digest",
    )
    worker_parser.add_argument(
        "--max-points", type=int, default=None,
        help="exit after executing N points (default: drain the queue)",
    )
    worker_parser.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between lease polls while others hold leases",
    )
    worker_parser.add_argument(
        "--lease-seconds", type=float, default=60.0,
        help="with --store: the broker's heartbeat budget (default 60)",
    )
    worker_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for this worker's own multi-seed runs",
    )
    worker_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock bound; a run that overruns it fails like "
        "any other error (see --retries)",
    )
    worker_parser.add_argument(
        "--retries", type=int, default=1,
        help="attempts per point before reporting failure (default 1)",
    )
    worker_parser.add_argument(
        "--record", action="store_true",
        help="with --store: capture computed runs as replay traces",
    )
    worker_parser.add_argument(
        "--fork-prefixes", action="store_true",
        help="execute forkable points from shared prefix checkpoints "
        "(ignored with --record; see docs/CAMPAIGNS.md)",
    )
    worker_parser.set_defaults(func=_cmd_worker)

    list_parser = subparsers.add_parser(
        "list-adversaries", help="list registered attack strategies"
    )
    list_parser.add_argument(
        "--components",
        action="store_true",
        help="also list the composable strategy components "
        "(targeting / schedule / vector / adaptive catalogs)",
    )
    list_parser.set_defaults(func=_cmd_list_adversaries)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the figure benchmarks, check result digests, emit BENCH_PR2.json",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="run the CI-sized subset of artifacts instead of the full suite",
    )
    bench_parser.add_argument(
        "--artifacts", default=None,
        help="comma-separated artifact names (default: all, or the quick subset)",
    )
    bench_parser.add_argument(
        "--out", default=None,
        help="where to write the performance report (empty string to skip; "
        "default BENCH_PR2.json, or the compare mode's own report)",
    )
    bench_parser.add_argument(
        "--baseline", default="benchmarks/bench_baseline.json",
        help="committed result-digest baseline to check against",
    )
    bench_parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the digest baseline from this run instead of checking",
    )
    bench_parser.add_argument(
        "--no-check", dest="check", action="store_false",
        help="skip the digest comparison against the baseline",
    )
    # One A/B comparison at a time: each flag runs every artifact with one
    # feature off and on (interleaved pairs), compares wall clock through
    # the median paired ratio, and fails if the row digests differ.
    compare = bench_parser.add_mutually_exclusive_group()
    compare.add_argument(
        "--record-compare", dest="compare", action="store_const", const="record",
        help="measure replay-trace recording overhead "
        "(report defaults to BENCH_PR6.json)",
    )
    compare.add_argument(
        "--telemetry-compare", dest="compare", action="store_const",
        const="telemetry",
        help="measure live-telemetry overhead: the event bus attached with a "
        "live subscriber (report defaults to BENCH_PR10.json)",
    )
    compare.add_argument(
        "--fork-compare", dest="compare", action="store_const", const="fork",
        help="measure prefix-forking speedup on the shared-prefix campaign "
        "families (report defaults to BENCH_PR9.json)",
    )
    bench_parser.add_argument(
        "--max-overhead", type=float, default=None, metavar="PCT",
        help="with a --*-compare mode: fail if the total wall-clock "
        "overhead exceeds this percentage",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=5, metavar="N",
        help="with a --*-compare mode: interleaved off/on pairs per "
        "artifact; more pairs squeeze host noise out of the median ratio",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb.  The one place a failure becomes an exit status: an
    expected one prints ``<verb>: <message>`` on stderr, a bug its traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``... | head -1``).  As the Python docs
        # advise: point stdout at devnull so the exit flush cannot raise
        # again, and exit with a fixed status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAILED
    except Exception as error:
        status = _exit_status(error)
        if status is None:
            raise
        verb = [args.command] + [
            getattr(args, name) for name in ("campaign_command", "store_command")
            if hasattr(args, name)
        ]
        sys.stdout.flush()  # the diagnostic follows what the verb printed
        print("%s: %s" % (" ".join(verb), error), file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
