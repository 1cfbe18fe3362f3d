"""CLI coverage for the service-era subcommands: SQLite ``--store``
references, ``campaign status --json``, ``store stats/clear/migrate``,
``worker --store``, and the streaming report path."""

import json

import pytest

from repro import units
from repro.api import Campaign, ResultStore, Scenario
from repro.cli import build_parser, main
from repro.service.sqlite_store import SQLiteResultStore


def campaign_file(tmp_path, points=2):
    scenario = Scenario(
        name="cli service",
        base="smoke",
        sim={"duration": units.months(2)},
        seeds=(1,),
    )
    campaign = Campaign.from_grid(
        "cli-service", scenario, {"sim.n_aus": list(range(1, points + 1))}
    )
    return campaign, campaign.save(tmp_path / "campaign.json")


class TestParser:
    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_worker_options_parse(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "http://localhost:8642", "--max-points", "3"]
        )
        assert args.connect == "http://localhost:8642"
        assert args.max_points == 3

    def test_submit_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "submit", "fig2_baseline"])

    def test_worker_needs_exactly_one_transport(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker"])
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "http://x", "--store", "y.db"])


class TestSQLiteStoreFlag:
    def test_campaign_run_into_sqlite_store(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        db = str(tmp_path / "results.db")
        assert main(["campaign", "run", str(path), "--store", db]) == 0
        assert "2 points complete" in capsys.readouterr().out
        stats = SQLiteResultStore(db).stats()
        assert stats["runs"]["count"] == 2
        assert "result" not in stats

    def test_report_streams_from_sqlite(self, tmp_path, capsys):
        campaign, path = campaign_file(tmp_path)
        db = str(tmp_path / "results.db")
        main(["campaign", "run", str(path), "--store", db])
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "--store", db]) == 0
        assert "result digest:" in capsys.readouterr().out


class TestStatusJson:
    def test_status_json_payload(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        db = str(tmp_path / "results.db")
        main(["campaign", "run", str(path), "--store", db, "--max-points", "1"])
        capsys.readouterr()
        assert main(["campaign", "status", str(path), "--store", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 2
        assert payload["counts"] == {"complete": 1, "failed": 0, "pending": 1}
        assert payload["complete"] is False
        assert [p["state"] for p in payload["points"]] == ["complete", "pending"]


class TestStoreSubcommands:
    def test_stats_both_backends(self, tmp_path, capsys):
        directory = tmp_path / "dir-store"
        ResultStore(directory).save_json("runs", "d1", [1])
        assert main(["store", "stats", "--store", str(directory)]) == 0
        assert "directory backend" in capsys.readouterr().out

        db = tmp_path / "s.db"
        SQLiteResultStore(db).save_json("runs", "d1", [1])
        assert main(["store", "stats", "--store", str(db), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"]["count"] == 1

    def test_clear_requires_confirmation(self, tmp_path, capsys):
        db = tmp_path / "s.db"
        SQLiteResultStore(db).save_json("runs", "d1", [1])
        assert main(["store", "clear", "--store", str(db)]) == 2
        assert "--yes" in capsys.readouterr().out
        assert main(["store", "clear", "--store", str(db), "--yes"]) == 0
        assert SQLiteResultStore(db).stats() == {}

    def test_prune_works_on_sqlite(self, tmp_path, capsys):
        db = tmp_path / "s.db"
        store = SQLiteResultStore(db)
        store.save_json("runs", "d1", [1])
        store.save_json("result", "d2", {})
        assert main(["store", "prune", "--store", str(db), "--kind", "runs"]) == 0
        capsys.readouterr()
        fresh = SQLiteResultStore(db)
        assert not fresh.has("runs", "d1")
        assert fresh.has("result", "d2")

    def test_migrate_directory_to_sqlite(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        directory = str(tmp_path / "dir-store")
        main(["campaign", "run", str(path), "--store", directory])
        capsys.readouterr()
        db = str(tmp_path / "migrated.db")
        assert main(["store", "migrate", directory, db]) == 0
        assert "migrated" in capsys.readouterr().out
        # The migrated store serves the same report.
        assert main(["campaign", "report", str(path), "--store", db]) == 0
        assert "result digest:" in capsys.readouterr().out


class TestWorkerCommand:
    def test_local_worker_drains_a_submitted_campaign(self, tmp_path, capsys):
        campaign, path = campaign_file(tmp_path)
        db = str(tmp_path / "svc.db")

        from repro.service import Broker

        Broker(SQLiteResultStore(db)).submit(campaign)
        assert main(["worker", "--store", db, "--id", "cli-worker"]) == 0
        output = capsys.readouterr().out
        assert "2 completed" in output

        assert main(["campaign", "status", str(path), "--store", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True

    def test_recording_worker_takes_the_session_flags(self, tmp_path, capsys):
        campaign, _ = campaign_file(tmp_path)
        db = str(tmp_path / "svc.db")

        from repro.service import Broker

        Broker(SQLiteResultStore(db)).submit(campaign)
        argv = ["worker", "--store", db, "--record", "--lease-seconds", "30"]
        argv += ["--workers", "1", "--timeout", "120", "--retries", "2"]
        assert main(argv) == 0
        assert "2 completed" in capsys.readouterr().out
        # No adversary, one seed: one recorded run per point.
        assert len(SQLiteResultStore(db).trace_paths()) == 2

    def test_worker_campaign_leases_only_that_campaign(self, tmp_path, capsys):
        campaign, _ = campaign_file(tmp_path)
        other = Campaign.from_grid("cli-service-other", campaign.scenario, {"sim.n_aus": [3]})
        db = str(tmp_path / "svc.db")

        from repro.service import Broker

        broker = Broker(SQLiteResultStore(db))
        broker.submit(campaign)
        broker.submit(other)
        assert main(["worker", "--store", db, "--campaign", campaign.digest]) == 0
        assert "2 completed" in capsys.readouterr().out
        assert broker.status(campaign.digest)["complete"] is True
        assert broker.status(other.digest)["counts"]["pending"] == 1


class TestServeCommand:
    def test_verbose_serve_logs_submissions(self, tmp_path, monkeypatch, capsys):
        from repro.service import http_api

        campaign, _ = campaign_file(tmp_path)
        make_server = http_api.make_server

        def serve_forever():
            raise KeyboardInterrupt  # the operator's Ctrl-C

        def make_server_and_submit(*args, **kwargs):
            server = make_server(*args, **kwargs)
            server.service.handle("POST", "/api/campaigns", campaign.to_dict())
            server.serve_forever = serve_forever
            return server

        monkeypatch.setattr(http_api, "make_server", make_server_and_submit)
        db = str(tmp_path / "svc.db")
        argv = ["serve", "--store", db, "--port", "0", "--verbose"]
        assert main(argv + ["--lease-seconds", "5", "--dashboard"]) == 0
        out = capsys.readouterr().out
        assert "submitted cli-service (%s): 2 points" % campaign.digest[:12] in out
        assert "lease 5s" in out and "/dashboard" in out
        assert "shutting down" in out


class TestStatusConnect:
    """``campaign status --connect`` reports broker trouble in one line."""

    @pytest.fixture
    def server(self, tmp_path):
        import threading

        from repro.service import make_server

        instance = make_server(SQLiteResultStore(tmp_path / "svc.db"), port=0)
        threading.Thread(target=instance.serve_forever, daemon=True).start()
        yield instance
        instance.shutdown()
        instance.server_close()

    def test_unknown_campaign_exits_2_without_a_traceback(
        self, server, tmp_path, capsys
    ):
        campaign, path = campaign_file(tmp_path)
        url = "http://127.0.0.1:%d" % server.server_address[1]
        # The server is up but has never seen this campaign's digest.
        assert main(["campaign", "status", str(path), "--connect", url]) == 2
        captured = capsys.readouterr()
        (line,) = captured.out.strip().splitlines()
        assert url in line and "404" in line and "unknown campaign" in line
        assert "Traceback" not in captured.out + captured.err

        # Once submitted, the same command succeeds.
        assert main(["campaign", "submit", str(path), "--connect", url]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(path), "--connect", url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == campaign.digest

    def test_watch_returns_once_the_campaign_is_complete(
        self, server, tmp_path, capsys
    ):
        from repro.service.worker import LocalBrokerClient, Worker

        campaign, path = campaign_file(tmp_path)
        url = "http://127.0.0.1:%d" % server.server_address[1]
        assert main(["campaign", "submit", str(path), "--connect", url]) == 0
        Worker(LocalBrokerClient(server.service.broker)).run()
        capsys.readouterr()
        argv = ["campaign", "status", str(path), "--connect", url, "--watch"]
        assert main(argv + ["--interval", "0.2"]) == 0
        assert "2/2 points complete" in capsys.readouterr().out

    def test_unreachable_server_exits_2(self, server, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        url = "http://127.0.0.1:%d" % server.server_address[1]
        server.shutdown()
        server.server_close()
        assert main(["campaign", "status", str(path), "--connect", url]) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert url in line
