"""Every verb's exit status and first stderr line, success and failure alike.

One row per subcommand and outcome that applies to it: success, a failed
point or check, missing or refused input, and an unreachable service.  Each
row pins the status (0 ok, 1 a failed run or check, 2 usage or refused
input, 3 a service that cannot be reached; README, "Exit statuses") and the
first line on stderr (empty when a verb succeeds), and no row may print a
traceback.  ``serve`` answering requests is covered by
``test_cli_service.TestServeShutdown``, which stops it from outside.
"""

import json
import logging
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import units
from repro.api import AdversarySpec, Campaign, Scenario
from repro.api.session import default_session
from repro.cli import main
from repro.service import Broker, make_server, start_server
from repro.service.sqlite_store import SQLiteResultStore

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_baseline.json"


@pytest.fixture(autouse=True)
def _clear_cache():
    default_session().clear_cache()
    yield
    default_session().clear_cache()


def refused_url():
    """A loopback URL nothing listens on: an ephemeral port, bound then freed."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return "http://127.0.0.1:%d" % port


def point(name, kind="pipe_stoppage"):
    return Scenario(
        name=name,
        base="smoke",
        sim={"duration": units.months(2)},
        adversary=AdversarySpec(kind, {"coverage": 1.0}),
        seeds=(1,),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The files, stores and service the rows name, by placeholder."""
    root = tmp_path_factory.mktemp("cli-failures")
    bogus = dict(Campaign("bogus", point("bogus")).to_dict(), bogus=1)
    files = {
        "missing_json": ("missing.json", None),
        "missing_trace": ("missing.jsonl.gz", None),
        "missing_ckpt": ("missing.ckpt.gz", None),
        "missing_store": ("missing-store", None),
        "missing_db": ("missing.db", None),
        "dir_store": ("dir-store", None),
        "made_ckpt": ("made.ckpt.gz", None),
        "migrated_db": ("migrated.db", None),
        "bad": ("bad.json", "{bad"),
        "bogus": ("bogus.json", json.dumps(bogus)),
        "torn_trace": ("torn.jsonl.gz", "not gzip"),
        "torn_ckpt": ("torn.ckpt.gz", "not gzip"),
    }
    paths = {"baseline": str(BASELINE)}
    for name, (filename, text) in files.items():
        paths[name] = str(root / filename)
        if text is not None:
            (root / filename).write_text(text, encoding="utf-8")
    paths["scenario"] = str(point("cli failures").save(root / "scenario.json"))
    paths["doomed"] = str(point("doomed", kind="nope").save(root / "doomed.json"))
    refused = Campaign.from_grid("refused", point("refused"), {"protocol.quorum": [0]})
    paths["refused"] = str(refused.save(root / "refused.json"))

    store = root / "store"
    argv = ["campaign", "run", paths["scenario"], "--store", str(store), "--record"]
    assert main(argv) == 0
    paths["store"] = str(store)
    traces = sorted(store.glob("trace-*.jsonl.gz"))
    paths["trace"], paths["other_trace"] = map(str, traces)
    paths["ckpt"] = str(root / "prefix.ckpt.gz")
    argv = ["checkpoint", paths["scenario"], "--baseline", "--at-days", "30"]
    assert main(argv + ["--out", paths["ckpt"]]) == 0
    for name in ("empty.db", "clear.db", "doomed.db"):
        SQLiteResultStore(root / name).close()
        paths[name.split(".")[0] + "_db"] = str(root / name)

    Broker(SQLiteResultStore(paths["doomed_db"])).submit(
        Campaign("doomed", point("doomed", kind="nope"))
    )
    server = make_server(SQLiteResultStore(root / "svc.db"), port=0)
    start_server(server)
    paths["server"] = "http://127.0.0.1:%d" % server.server_address[1]
    paths["server_port"] = str(server.server_address[1])
    paths["refused_url"] = refused_url()
    yield paths
    server.shutdown()
    server.server_close()


#: (id, argv, exit status, first stderr line as a regex).  ``{name}`` stands
#: for the workspace path or URL of that name, escaped in the regex.
ROWS = [
    # campaign run
    ("run-ok", "campaign run {scenario} --store {store}", 0, ""),
    ("run-failed-point", "campaign run {doomed} --retries 0", 1,
     r"campaign [0-9a-f]{64}: point #0 \([0-9a-f]{64}\) failed: attacked run of "
     r"'doomed' \(seed 1\) failed after \d attempt\(s\): \"unknown adversary 'nope'"),
    ("run-missing-file", "campaign run {missing_json}", 2,
     r"campaign run: no campaign file '{missing_json}' and no bench artifact of "
     r"that name \(known artifacts: ablation_admission, "),
    ("run-unknown-artifact", "campaign run nosuch", 2,
     r"campaign run: no campaign file 'nosuch' and no bench artifact"),
    ("run-malformed-json", "campaign run {bad}", 2,
     r"campaign run: malformed spec {bad}: JSONDecodeError: Expecting property name"),
    ("run-unknown-key", "campaign run {bogus}", 2,
     r"campaign run: malformed spec {bogus}: ValueError: unknown Campaign key\(s\) "
     r"'bogus' \(known: "),
    ("run-record-without-store", "campaign run {scenario} --record", 2,
     r"campaign run: --record needs --store \(traces are store artifacts\)$"),
    ("run-record-and-fork-prefixes",
     "campaign run {scenario} --store {store} --record --fork-prefixes", 2,
     r"campaign run: --record and --fork-prefixes exclude each other: "),
    # campaign status
    ("status-ok", "campaign status {scenario} --store {store}", 0, ""),
    ("status-no-store", "campaign status {scenario}", 0, ""),
    ("status-missing-store", "campaign status {scenario} --store {missing_store}", 2,
     r"campaign status: no store at {missing_store}$"),
    ("status-missing-file", "campaign status {missing_json}", 2,
     r"campaign status: no campaign file '{missing_json}'"),
    ("status-connect-404", "campaign status fig2_baseline --connect {server}", 2,
     r"campaign status: GET {server}/api/campaigns/[0-9a-f]{64} failed: HTTP 404 "
     r"unknown campaign '[0-9a-f]{64}'$"),
    ("status-connect-refused", "campaign status {scenario} --connect {refused_url}", 3,
     r"campaign status: cannot reach {refused_url}: \[Errno 111\] Connection refused$"),
    # campaign report
    ("report-ok", "campaign report {scenario} --store {store}", 0, ""),
    ("report-failed-check",
     "campaign report {scenario} --store {store} --check-digest {baseline}", 1,
     r"campaign report: RESULT CHECK FAILED — digest drift or a broken paper claim:$"),
    ("report-incomplete", "campaign report fig2_baseline --store {store}", 2,
     r"campaign report: campaign 'fig2_baseline' is incomplete: "),
    ("report-missing-store", "campaign report {scenario} --store {missing_store}", 2,
     r"campaign report: no store at {missing_store}$"),
    ("report-without-store", "campaign report {scenario}", 2,
     r"usage: repro-experiments campaign report "),
    ("report-missing-file", "campaign report {missing_json} --store {store}", 2,
     r"campaign report: no campaign file '{missing_json}'"),
    # campaign submit
    ("submit-ok", "campaign submit {scenario} --connect {server}", 0, ""),
    ("submit-refused-by-service", "campaign submit {refused} --connect {server}", 2,
     r"campaign submit: POST {server}/api/campaigns failed: HTTP 400 "
     r"quorum must be at least 1$"),
    ("submit-malformed-json", "campaign submit {bad} --connect {server}", 2,
     r"campaign submit: malformed spec {bad}: JSONDecodeError: "),
    ("submit-missing-file", "campaign submit {missing_json} --connect {server}", 2,
     r"campaign submit: no campaign file '{missing_json}'"),
    ("submit-refused", "campaign submit {scenario} --connect {refused_url}", 3,
     r"campaign submit: cannot reach {refused_url}: \[Errno 111\] Connection refused$"),
    # store
    ("store-stats-ok", "store stats --store {store}", 0, ""),
    ("store-stats-missing", "store stats --store {missing_store}", 2,
     r"store stats: no store at {missing_store}$"),
    ("store-prune-ok", "store prune --store {empty_db}", 0, ""),
    ("store-prune-invalid-kind", "store prune --store {store} --kind ../evil", 2,
     r"store prune: invalid artifact kind '\.\./evil'$"),
    ("store-prune-missing", "store prune --store {missing_store}", 2,
     r"store prune: no store at {missing_store}$"),
    ("store-clear-ok", "store clear --store {clear_db} --yes", 0, ""),
    ("store-clear-unconfirmed", "store clear --store {store}", 2,
     r"store clear: removes every artifact in {store}; pass --yes to confirm$"),
    ("store-clear-missing", "store clear --store {missing_store} --yes", 2,
     r"store clear: no store at {missing_store}$"),
    ("store-migrate-ok", "store migrate {store} {migrated_db}", 0, ""),
    ("store-migrate-same-store", "store migrate {store} {store}", 2,
     r"store migrate: source and destination are the same store$"),
    ("store-migrate-missing", "store migrate {missing_store} {migrated_db}", 2,
     r"store migrate: no store at {missing_store}$"),
    # replay and bisect
    ("replay-ok", "replay {trace}", 0, ""),
    ("replay-digest-mismatch", "replay {trace} --expect-digest " + "f" * 64, 1,
     r"replay: METRICS DIGEST MISMATCH: replayed [0-9a-f]{64} != expected f{64}$"),
    ("replay-torn-trace", "replay {torn_trace}", 1,
     r"replay: trace {torn_trace} is not a readable gzip stream: "),
    ("replay-missing-file", "replay {missing_trace}", 2,
     r"replay: \[Errno 2\] No such file or directory: '{missing_trace}'$"),
    ("replay-list-missing-file", "replay {missing_trace} --list", 2,
     r"replay: \[Errno 2\] No such file or directory: '{missing_trace}'$"),
    ("bisect-identical", "bisect {trace} {trace}", 0, ""),
    ("bisect-divergent", "bisect {trace} {other_trace}", 1, ""),
    ("bisect-missing-file", "bisect {trace} {missing_trace}", 2,
     r"bisect: \[Errno 2\] No such file or directory: '{missing_trace}'$"),
    # checkpoint and fork
    ("checkpoint-ok", "checkpoint {scenario} --at-days 20 --out {made_ckpt}", 0, ""),
    ("checkpoint-past-duration",
     "checkpoint {scenario} --at-days 100000 --out {made_ckpt}", 2,
     r"checkpoint: --at-days 100000\.0 is past the scenario duration "),
    ("checkpoint-malformed-spec", "checkpoint {bad} --out {made_ckpt}", 2,
     r"checkpoint: malformed spec {bad}: JSONDecodeError: "),
    ("checkpoint-missing-file", "checkpoint {missing_json} --out {made_ckpt}", 2,
     r"checkpoint: \[Errno 2\] No such file or directory: '{missing_json}'$"),
    ("fork-ok", "fork {ckpt} --until-days 40", 0, ""),
    ("fork-torn-checkpoint", "fork {torn_ckpt}", 1,
     r"fork: cannot load checkpoint {torn_ckpt}: "),
    ("fork-malformed-params", "fork {ckpt} --adversary pipe_stoppage --params x", 2,
     r"fork: --params must be a JSON object: Expecting value"),
    ("fork-missing-file", "fork {missing_ckpt}", 2,
     r"fork: \[Errno 2\] No such file or directory: '{missing_ckpt}'$"),
    # serve and worker
    ("serve-directory-store", "serve --store {dir_store}", 2,
     r"serve: --store needs a SQLite store \(results\.db\), not {dir_store}: "),
    ("serve-busy-port", "serve --store {missing_db} --port {server_port}", 2,
     r"serve: cannot listen on 127\.0\.0\.1:{server_port}: \[Errno 98\] "
     r"Address already in use$"),
    ("serve-store-under-a-file", "serve --store {bad}/x.db --port 0", 2,
     r"serve: \[Errno 20\] Not a directory: '{bad}/x\.db\.traces'$"),
    ("worker-ok", "worker --store {empty_db}", 0, ""),
    ("worker-failed-point", "worker --store {doomed_db} --retries 0", 1, ""),
    ("worker-directory-store", "worker --store {dir_store}", 2,
     r"worker: --store needs a SQLite store \(results\.db\), not {dir_store}: "),
    ("worker-missing-store", "worker --store {missing_db}", 2,
     r"worker: no store at {missing_db}$"),
    ("worker-two-transports", "worker --connect {server} --store {empty_db}", 2,
     r"worker: needs exactly one of --connect URL \(remote service\) or --store "),
    ("worker-refused", "worker --connect {refused_url}", 3,
     r"worker: cannot reach {refused_url}: \[Errno 111\] Connection refused$"),
    # list-adversaries and bench
    ("list-adversaries-ok", "list-adversaries", 0, ""),
    ("bench-ok",
     "bench --artifacts fig4_delay_ratio --out '' --baseline {baseline}", 0, ""),
    ("bench-failed-check",
     "bench --artifacts fig4_delay_ratio --out '' --baseline {bad}", 1,
     r"bench: RESULT CHECK FAILED — digest drift or a broken paper claim:$"),
    ("bench-unknown-artifact", "bench --artifacts nosuch --out ''", 2,
     r"bench: unknown bench artifact\(s\) nosuch \(known artifacts: "),
]


def run(argv):
    """``main(argv)``'s exit status; an argparse refusal exits via SystemExit."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


@pytest.mark.parametrize(
    "argv, status, first_line", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_failure_table(workspace, capsys, caplog, argv, status, first_line):
    words = ["" if word == "''" else word.format_map(workspace) for word in argv.split()]
    assert run(words) == status
    captured = capsys.readouterr()
    # The CLI configures no logging, so its warnings reach stderr through
    # logging's last-resort handler, as their bare messages; pytest captures
    # them as records instead.
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    stderr = captured.err.splitlines() + warnings
    assert "Traceback" not in captured.out + captured.err
    pattern = re.sub(
        r"\{([a-z]\w*)\}", lambda name: re.escape(workspace[name.group(1)]), first_line
    )
    assert re.match(pattern, (stderr or [""])[0]), stderr


@pytest.mark.parametrize("verb", ["serve", "worker"])
def test_a_store_that_is_not_sqlite_is_refused_before_it_is_created(
    tmp_path, capsys, verb
):
    store = tmp_path / "results"
    assert main([verb, "--store", str(store)]) == 2
    assert capsys.readouterr().err.startswith("%s: --store needs a SQLite store" % verb)
    assert list(tmp_path.iterdir()) == []


def test_a_busy_port_or_a_missing_worker_store_creates_nothing(tmp_path, capsys):
    """``serve`` binds before it opens its database, and ``worker --store``
    drains an existing store only: a refusal leaves no file behind."""
    store = tmp_path / "results.db"
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = str(busy.getsockname()[1])
        assert main(["serve", "--store", str(store), "--port", port]) == 2
    assert main(["worker", "--store", str(store)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("serve: cannot listen on 127.0.0.1:%s: " % port)
    assert lines[1] == "worker: no store at %s" % store
    assert list(tmp_path.iterdir()) == []


def test_a_service_error_is_a_failure(tmp_path, capsys, monkeypatch):
    """A 5xx is the service failing, not the request: status 1."""
    server = make_server(SQLiteResultStore(tmp_path / "svc.db"), port=0)
    start_server(server)
    url = "http://127.0.0.1:%d" % server.server_address[1]

    def broken(digest, include_points=True):
        raise RuntimeError("bug")

    monkeypatch.setattr(server.service.broker, "status", broken)
    path = point("broken").save(tmp_path / "broken.json")
    try:
        assert main(["campaign", "status", str(path), "--connect", url]) == 1
    finally:
        server.shutdown()
        server.server_close()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("campaign status: GET %s/api/campaigns/" % url)
    assert line.endswith(" failed: HTTP 500 RuntimeError: bug")


def test_importing_the_cli_loads_no_replay_module():
    code = "import sys, repro.cli; print([m for m in sys.modules if 'repro.replay' in m])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
