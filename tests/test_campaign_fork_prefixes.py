"""Prefix-fork campaign acceleration: the digest-parity proof harness.

The contract under test: ``CampaignRunner(fork_prefixes=True)`` simulates
each shared baseline prefix once, checkpoints it, forks every attack
suffix — and every forked run is *bit-identical* (same RunMetrics digest,
same event counts, same exported rows) to simulating the point from
scratch.  Alongside the parity suites live the grouping laws
(``plan_fork_groups`` only merges prefix-invariant axes), the fault-window
refusal pin, kill/resume checkpoint reuse through the CLI, and the service
broker's prefix-affinity leasing.
"""

import dataclasses
import random

import pytest

from repro import units
from repro.api import AdversarySpec, Campaign, CampaignRunner, ResultStore, Scenario, Session
from repro.api.campaign import attack_onset, plan_fork_groups, prefix_key
from repro.api.scenario import canonical_json
from repro.api.session import build_point_world
from repro.cli import main
from repro.experiments.bench import bench_configs
from repro.experiments.composed import (
    adaptive_attack_campaign,
    combined_attack_campaign,
    delayed_attack_campaign,
)
from repro.replay.checkpoint import Checkpoint, CheckpointError
from repro.service.broker import Broker, Lease
from repro.service.http_api import ExperimentService
from repro.service.sqlite_store import SQLiteResultStore
from repro.service.worker import LocalBrokerClient, Worker


def delayed_scenario(
    name="delayed-fork",
    seeds=(1,),
    faults=None,
    onset_day=45.0,
    duration=units.months(5),
):
    """A pipe-stoppage attacker that lurks for ``onset_day`` days, then strikes."""
    return Scenario(
        name=name,
        base="smoke",
        sim={"duration": duration},
        adversary=AdversarySpec(
            "composed",
            {
                "node_id": "delayed-adversary",
                "targeting": {"kind": "random_subset", "coverage": 1.0},
                "schedule": {
                    "kind": "piecewise",
                    "phases": [
                        {"duration_days": onset_day, "intensity": 0.0, "gap_days": 0.0},
                        {"duration_days": 20.0, "intensity": 1.0, "gap_days": 10.0},
                    ],
                    "repeat": True,
                },
                "vectors": [{"kind": "pipe_stoppage"}],
            },
        ),
        faults=dict(faults or {}),
        seeds=tuple(seeds),
    )


def delayed_campaign(coverages=(0.4, 1.0), name="delayed-fork", **kwargs):
    campaign = Campaign(name=name, scenario=delayed_scenario(name=name, **kwargs))
    campaign.add_axis(**{"adversary.targeting.coverage": list(coverages)})
    return campaign


def result_blobs(results):
    """Canonical JSON of every point result — covers per-run metrics digests,
    event counts, and everything the row exporters derive from."""
    return [canonical_json(dataclasses.asdict(point.result)) for point in results]


def assert_fork_parity(campaign, store_path, workers=1):
    """Full runs vs prefix-forked runs must agree bit for bit."""
    if workers > 1:
        with Session(workers=workers) as session:
            full = CampaignRunner(session).run(campaign)
        forked_session = Session(workers=workers, store=str(store_path))
        with forked_session:
            forked = CampaignRunner(forked_session, fork_prefixes=True).run(campaign)
    else:
        full = CampaignRunner(Session()).run(campaign)
        forked_session = Session(store=str(store_path))
        forked = CampaignRunner(forked_session, fork_prefixes=True).run(campaign)
    assert len(full) == len(forked) == len(campaign)
    assert result_blobs(full) == result_blobs(forked)
    return forked_session


class TestForkParity:
    """Satellite: the digest-parity contract across campaign families."""

    def test_delayed_sweep_parity_across_three_seeds(self, tmp_path):
        campaign = delayed_campaign(seeds=(1, 2, 3))
        groups = plan_fork_groups(campaign.expand())
        assert len(groups) == 3  # one shared prefix per seed
        assert all(g.fork_time == 45.0 * units.DAY for g in groups)
        session = assert_fork_parity(campaign, tmp_path / "store")
        # one persisted checkpoint per (seed, prefix) group
        assert len(session.store.checkpoint_digests()) == 3

    def test_churn_faulted_prefix_parity(self, tmp_path):
        # Faults are environment: they belong to the prefix and fork fine.
        campaign = delayed_campaign(
            seeds=(1, 2),
            faults={"churn": {"rate_per_peer_per_year": 6.0, "mean_downtime_days": 5.0}},
        )
        assert len(plan_fork_groups(campaign.expand())) == 2
        session = assert_fork_parity(campaign, tmp_path / "store")
        assert len(session.store.checkpoint_digests()) == 2

    def test_onset_zero_families_fall_back_to_full_runs(self, tmp_path):
        # combined and adaptive attacks strike at t=0: nothing to fork,
        # fork_prefixes must degrade to plain full runs with equal digests.
        protocol, sim = bench_configs(duration=units.months(3))
        for maker, axis in (
            (combined_attack_campaign, {"coverages": (0.4, 1.0)}),
            (adaptive_attack_campaign, {"thresholds": (0.05, 0.95)}),
        ):
            campaign = maker(
                seeds=(1,), protocol_config=protocol, sim_config=sim, **axis
            )
            assert plan_fork_groups(campaign.expand()) == []
            session = assert_fork_parity(
                campaign, tmp_path / ("store-" + campaign.name)
            )
            assert session.store.checkpoint_digests() == []

    def test_forked_serial_equals_forked_pool(self, tmp_path):
        campaign = delayed_campaign(seeds=(1, 2))
        serial = CampaignRunner(
            Session(store=str(tmp_path / "serial")), fork_prefixes=True
        ).run(campaign)
        with Session(workers=2, store=str(tmp_path / "pool")) as session:
            pooled = CampaignRunner(session, fork_prefixes=True).run(campaign)
        assert result_blobs(serial) == result_blobs(pooled)

    def test_delayed_attack_campaign_shape(self):
        # The bench family itself plans one group per seed covering every
        # coverage, forking at the configured onset.
        protocol, sim = bench_configs(duration=units.months(9))
        campaign = delayed_attack_campaign(
            seeds=(1,), protocol_config=protocol, sim_config=sim
        )
        points = campaign.expand()
        assert attack_onset(points[0].scenario) == 165.0 * units.DAY
        groups = plan_fork_groups(points)
        assert len(groups) == 1
        attacked = [spec for _, spec in groups[0].members if spec is not None]
        assert len(attacked) == 5


class TestForkGrouping:
    """Satellite: grouping laws over randomized prefix/suffix axis grids."""

    PREFIX_AXES = [
        {"protocol.quorum": [3, 5]},
        {"faults.churn.rate_per_peer_per_year": [4.0, 12.0]},
        {"sim.duration": [units.months(5), units.months(6)]},
    ]
    SUFFIX_AXES = [
        {"adversary.targeting.coverage": [0.25, 0.5, 1.0]},
        {"adversary.vectors.0.kind": ["pipe_stoppage", "admission_flood"]},
    ]

    @staticmethod
    def _axis_names(axes):
        return [name for axis in axes for name in axis]

    def test_grouping_laws_over_random_axis_grids(self):
        rng = random.Random(0xF08C)
        for trial in range(25):
            suffix = rng.sample(self.SUFFIX_AXES, rng.randint(1, 2))
            prefix = rng.sample(self.PREFIX_AXES, rng.randint(0, 2))
            seeds = tuple(range(1, rng.randint(1, 3) + 1))
            campaign = Campaign(
                name="grid-%d" % trial,
                scenario=delayed_scenario(
                    seeds=seeds,
                    faults={"churn": {"rate_per_peer_per_year": 4.0}},
                ),
            )
            order = suffix + prefix
            rng.shuffle(order)
            for axis in order:
                campaign.add_axis(**axis)
            points = campaign.expand()
            groups = plan_fork_groups(points)

            suffix_size = 1
            for axis in suffix:
                suffix_size *= len(next(iter(axis.values())))
            prefix_size = 1
            for axis in prefix:
                prefix_size *= len(next(iter(axis.values())))

            # Law 1: exactly one group per (seed, prefix-combination); only
            # prefix-invariant axes ever share a checkpoint.
            assert len(groups) == len(seeds) * prefix_size
            assert len({(g.seed, g.members[0][0]) for g in groups}) == len(groups)

            baseline_of = {}
            for point in points:
                for seed in point.scenario.seeds:
                    attacked = point.scenario.point_digest(seed, baseline=False)
                    baseline_of[attacked] = (
                        seed,
                        point.scenario.point_digest(seed, baseline=True),
                        prefix_key(point.scenario),
                    )
            for group in groups:
                prefix_digest = group.members[0][0]
                assert group.members[0][1] is None
                attacked = [m for m in group.members[1:] if m[1] is not None]
                # Law 2: a group covers the full suffix sweep (>= 2 members).
                assert len(attacked) == suffix_size >= 2
                for digest, _spec in attacked:
                    seed, baseline, _key = baseline_of[digest]
                    # Law 3: every member shares the group's baseline prefix.
                    assert seed == group.seed
                    assert baseline == prefix_digest

            # Law 4: prefix_key separates points exactly along prefix axes.
            keys = {prefix_key(point.scenario) for point in points}
            assert len(keys) == prefix_size

    def test_prefix_only_sweep_plans_no_groups(self):
        # A single suffix point per prefix would fork alone: prefix-touching
        # sweeps therefore run fully, with no checkpoint planned at all.
        campaign = Campaign(
            name="prefix-only",
            scenario=delayed_scenario(
                faults={"churn": {"rate_per_peer_per_year": 4.0}}
            ),
        )
        campaign.add_axis(**{"faults.churn.rate_per_peer_per_year": [4.0, 12.0]})
        assert plan_fork_groups(campaign.expand()) == []

    def test_unforkable_points_are_excluded(self):
        # No adversary at all -> nothing to fork.
        bare = Scenario(
            name="bare", base="smoke", sim={"duration": units.months(5)}, seeds=(1,)
        )
        campaign = Campaign(name="bare", scenario=bare)
        campaign.add_axis(**{"sim.n_aus": [1, 2]})
        assert plan_fork_groups(campaign.expand()) == []
        # Onset at t=0 (plain on_off schedule) -> provably nothing to skip.
        protocol, sim = bench_configs(duration=units.months(3))
        zero = combined_attack_campaign(
            coverages=(0.4, 1.0), seeds=(1,), protocol_config=protocol, sim_config=sim
        )
        assert attack_onset(zero.expand()[0].scenario) == 0.0
        assert plan_fork_groups(zero.expand()) == []


class TestFaultWindowRefusal:
    """Satellite: forking refuses fault windows that open before the fork."""

    @staticmethod
    def _checkpoint(day=50.0):
        scenario = Scenario(
            name="refusal", base="smoke", sim={"duration": units.months(5)}, seeds=(1,)
        )
        world = build_point_world(scenario, 1, baseline=True)
        return Checkpoint.capture_at(world, day * units.DAY)

    def test_churn_window_before_fork_point_is_refused(self):
        checkpoint = self._checkpoint(day=50.0)
        with pytest.raises(CheckpointError, match="churn section opens at day 10"):
            checkpoint.fork(
                fault_plan={
                    "churn": {"rate_per_peer_per_year": 4.0, "start_day": 10.0}
                }
            )

    def test_crash_and_partition_windows_are_named(self):
        checkpoint = self._checkpoint(day=50.0)
        with pytest.raises(CheckpointError, match="crash section opens at day 1"):
            checkpoint.fork(
                fault_plan={
                    "crash": {"rate_per_peer_per_year": 4.0, "start_day": 1.0}
                }
            )
        with pytest.raises(
            CheckpointError, match="partition window 0 opens at day 20"
        ):
            checkpoint.fork(
                fault_plan={"partitions": [{"start_day": 20.0, "duration_days": 5.0}]}
            )

    def test_window_opening_at_or_after_fork_point_is_accepted(self):
        checkpoint = self._checkpoint(day=50.0)
        world = checkpoint.fork(
            fault_plan={"churn": {"rate_per_peer_per_year": 4.0, "start_day": 50.0}}
        )
        assert world.fault_engine is not None


class TestKillResume:
    """Satellite: an interrupted --fork-prefixes campaign resumes from the
    persisted prefix checkpoint without re-simulating it."""

    def test_cli_resume_reuses_persisted_checkpoint(self, tmp_path, capsys, monkeypatch):
        campaign = delayed_campaign(coverages=(0.3, 0.6, 1.0), duration=units.months(4))
        path = campaign.save(tmp_path / "campaign.json")
        store_full = str(tmp_path / "uninterrupted")
        store_killed = str(tmp_path / "killed")

        assert main(["campaign", "run", str(path), "--store", store_full,
                     "--fork-prefixes"]) == 0
        assert main(["campaign", "run", str(path), "--store", store_killed,
                     "--fork-prefixes", "--max-points", "1"]) == 0
        capsys.readouterr()
        # The prefix checkpoint outlived the "kill".
        assert len(ResultStore(store_killed).checkpoint_digests()) == 1

        captures = []
        real_capture_at = Checkpoint.capture_at.__func__

        def counting_capture_at(cls, world, time):
            captures.append(time)
            return real_capture_at(cls, world, time)

        monkeypatch.setattr(
            Checkpoint, "capture_at", classmethod(counting_capture_at)
        )
        assert main(["campaign", "resume", str(path), "--store", store_killed,
                     "--fork-prefixes"]) == 0
        assert "3 points complete" in capsys.readouterr().out
        # The completed prefix was never re-simulated on resume.
        assert captures == []

        full_store = ResultStore(store_full)
        killed_store = ResultStore(store_killed)
        for point in campaign.expand():
            for _, _, digest in point.run_keys:
                left = full_store.load_json("runs", digest)
                right = killed_store.load_json("runs", digest)
                assert left is not None
                assert canonical_json(left) == canonical_json(right)


class TestBrokerPrefixAffinity:
    """Service layer: prefix-stamped points, affinity leasing, /spec route."""

    @staticmethod
    def _two_prefix_campaign():
        campaign = Campaign(
            name="affinity",
            scenario=delayed_scenario(
                name="affinity",
                faults={"churn": {"rate_per_peer_per_year": 4.0}},
            ),
        )
        campaign.add_axis(**{"faults.churn.rate_per_peer_per_year": [4.0, 12.0]})
        campaign.add_axis(**{"adversary.targeting.coverage": [0.3, 1.0]})
        return campaign

    def test_submit_stamps_prefixes(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "svc.db")
        broker = Broker(store, lease_seconds=30.0)
        digest = broker.submit(self._two_prefix_campaign())["digest"]
        rows = store.execute(
            "SELECT idx, prefix FROM broker_points WHERE campaign=? ORDER BY idx",
            (digest,),
        ).fetchall()
        prefixes = [prefix for _, prefix in rows]
        assert all(prefixes)
        # First axis is outermost: points 0/1 share one prefix, 2/3 the other.
        assert prefixes[0] == prefixes[1] != prefixes[2] == prefixes[3]

        # Unforkable campaigns carry NULL prefixes.
        protocol, sim = bench_configs(duration=units.months(3))
        zero = combined_attack_campaign(
            coverages=(0.4, 1.0), seeds=(1,), protocol_config=protocol, sim_config=sim
        )
        zero_digest = broker.submit(zero)["digest"]
        zero_rows = store.execute(
            "SELECT prefix FROM broker_points WHERE campaign=?", (zero_digest,)
        ).fetchall()
        assert [prefix for (prefix,) in zero_rows] == [None, None]

    def test_lease_keeps_one_worker_per_prefix_group(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "svc.db")
        broker = Broker(store, lease_seconds=30.0)
        broker.submit(self._two_prefix_campaign())

        first = broker.lease("w1")
        assert first.index == 0 and first.prefix
        # w2 avoids the prefix w1 is actively inside: it skips point 1.
        second = broker.lease("w2")
        assert second.index == 2
        assert second.prefix != first.prefix
        # w1 sticks with its own prefix group.
        third = broker.lease("w1")
        assert third.index == 1 and third.prefix == first.prefix
        fourth = broker.lease("w2")
        assert fourth.index == 3 and fourth.prefix == second.prefix
        assert broker.lease("w3") is None

        # The prefix survives the wire format.
        payload = first.to_dict()
        assert payload["prefix"] == first.prefix
        assert Lease.from_dict(payload).prefix == first.prefix

        # A batch drains the worker's last prefix group first, then moves on:
        # w1 last leased point 0, so its batch is [1, 2], not [2, 1].
        batched = Broker(SQLiteResultStore(tmp_path / "batch.db"), lease_seconds=30.0)
        batched.submit(self._two_prefix_campaign())
        opener = batched.lease("w1")
        batch = batched.lease_batch("w1", limit=4)
        assert [lease.index for lease in batch] == [1, 2]
        assert batch[0].prefix == opener.prefix != batch[1].prefix

    def test_spec_route_round_trips_the_campaign(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "svc.db")
        service = ExperimentService(store, lease_seconds=10.0)
        campaign = self._two_prefix_campaign()
        status, submitted = service.handle("POST", "/api/campaigns", campaign.to_dict())
        assert status == 200
        digest = submitted["digest"]

        status, payload = service.handle("GET", "/api/campaigns/%s/spec" % digest)
        assert status == 200
        restored = Campaign.from_dict(payload["campaign"])
        assert restored.digest == campaign.digest
        assert service.handle("GET", "/api/campaigns/%s/spec" % ("ab" * 32))[0] == 404

    def test_fork_prefix_worker_reuses_one_checkpoint(self, tmp_path):
        campaign = delayed_campaign(
            name="svc-fork", coverages=(0.3, 0.6, 1.0), duration=units.months(4)
        )
        full_store = str(tmp_path / "full")
        CampaignRunner(Session(store=full_store)).run(campaign)

        store = SQLiteResultStore(tmp_path / "svc.db")
        broker = Broker(store, lease_seconds=30.0)
        broker.submit(campaign)
        events = []
        worker = Worker(
            LocalBrokerClient(broker),
            Session(store=store),
            worker_id="w1",
            fork_prefixes=True,
            on_event=events.append,
        )
        summary = worker.run()
        assert summary["completed"] == 3
        assert sum("forking" in event for event in events) == 3
        # Affinity keeps the group on one worker; all three forks shared
        # the single persisted prefix checkpoint.
        assert len(store.checkpoint_digests()) == 1

        rows_full = CampaignRunner(Session(store=full_store)).rows(campaign)
        rows_svc = CampaignRunner(Session(store=store)).rows(campaign)
        assert canonical_json(rows_full) == canonical_json(rows_svc)

    def test_unfetchable_campaign_falls_back_to_full_runs_with_a_warning(
        self, tmp_path, caplog
    ):
        campaign = delayed_campaign(name="svc-fallback", duration=units.months(3))
        store = SQLiteResultStore(tmp_path / "svc.db")
        broker = Broker(store, lease_seconds=30.0)
        broker.submit(campaign)

        class NoSpecClient(LocalBrokerClient):
            def get_campaign(self, digest):
                raise RuntimeError("GET /spec failed: HTTP 404 unknown route")

        worker = Worker(
            NoSpecClient(broker), Session(store=store), worker_id="w1", fork_prefixes=True
        )
        with caplog.at_level("WARNING", logger="repro.service.worker"):
            assert worker.run()["completed"] == 2
        # Surfaced once (the empty plan is cached), never swallowed — and the
        # points still complete, in full, without a checkpoint.
        (record,) = [r for r in caplog.records if "plan prefix forks" in r.message]
        assert "HTTP 404" in record.getMessage() and "run in full" in record.getMessage()
        assert store.checkpoint_digests() == []
