"""Determinism regression tests for the simulation-kernel fast path.

The kernel optimizations (slab-free event scheduling, network fast paths,
memoized effort pricing, the single-draw nonce) are only admissible because
they keep simulation results bit-identical.  These tests pin that contract:

* the pipe-stoppage smoke scenario produces byte-identical ``ResultStore``
  artifacts (digests *and* full metric payloads) when run twice, serially
  and on a two-worker process pool;
* ``make_nonce`` consumes the documented version-2 RNG stream (one
  ``getrandbits(8 * n)`` draw) and leaves the stream exactly where a
  reference single-draw implementation would.
"""

import json
import random
from pathlib import Path

from repro import units
from repro.api import ResultStore, Scenario, Session
from repro.api.scenario import AdversarySpec
from repro.config import smoke_config
from repro.crypto.hashing import NONCE_STREAM_VERSION, make_nonce


def _smoke_scenario() -> Scenario:
    """The pipe-stoppage smoke scenario (short horizon to stay test-fast)."""
    protocol, sim = smoke_config(seed=1)
    scenario = Scenario.from_configs(
        "smoke pipe stoppage",
        protocol,
        sim.with_overrides(duration=units.months(5)),
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 45.0, "coverage": 1.0, "recuperation_days": 15.0},
        ),
        seeds=(1, 2),
    )
    return scenario


def _store_artifacts(root: Path) -> dict:
    """Map artifact file name -> raw bytes for every store artifact."""
    return {path.name: path.read_bytes() for path in sorted(root.glob("*.json"))}


class TestSerialParallelBitIdentity:
    def test_smoke_scenario_digests_and_payloads_identical(self, tmp_path):
        scenario = _smoke_scenario()

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = Session(workers=1, store=ResultStore(serial_dir))
        parallel = Session(workers=2, store=ResultStore(parallel_dir))

        serial_result = serial.run(scenario)
        parallel_result = parallel.run(scenario)

        # Same scenario content digest keys both runs.
        assert serial_result.scenario_digest == parallel_result.scenario_digest

        serial_artifacts = _store_artifacts(serial_dir)
        parallel_artifacts = _store_artifacts(parallel_dir)

        # Identical digest-keyed artifact file names on both sides...
        assert set(serial_artifacts) == set(parallel_artifacts)
        assert serial_artifacts  # the store actually persisted runs
        # ...and byte-identical payloads (digests AND full metric payloads).
        for name, payload in serial_artifacts.items():
            assert payload == parallel_artifacts[name], name

    def test_rerun_is_bit_identical_to_first_run(self, tmp_path):
        scenario = _smoke_scenario()
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        Session(workers=1, store=ResultStore(first_dir)).run(scenario)
        Session(workers=1, store=ResultStore(second_dir)).run(scenario)
        assert _store_artifacts(first_dir) == _store_artifacts(second_dir)

    def test_metric_payloads_round_trip_equal(self, tmp_path):
        scenario = _smoke_scenario()
        store = ResultStore(tmp_path / "store")
        result = Session(workers=1, store=store).run(scenario)
        runs = result.attacked_runs + result.baseline_runs
        for (_, _, digest), run in zip(scenario.run_keys(), runs):
            persisted = store.load_json("runs", digest)
            assert persisted == json.loads(json.dumps([run.to_dict()]))


class TestNonceStream:
    def test_nonce_stream_version_is_two(self):
        assert NONCE_STREAM_VERSION == 2

    def test_make_nonce_single_draw_consumption(self):
        # The version-2 contract: one getrandbits(8 * n) call, big-endian
        # bytes.  Both the value and the post-call stream state must match a
        # reference single-draw implementation exactly.
        rng = random.Random(12345)
        reference = random.Random(12345)

        nonce = make_nonce(rng)
        expected = reference.getrandbits(160).to_bytes(20, "big")
        assert nonce == expected
        assert len(nonce) == 20
        # Stream left in exactly the same state.
        assert rng.getstate() == reference.getstate()
        assert rng.random() == reference.random()

    def test_make_nonce_custom_width_and_degenerate(self):
        rng = random.Random(7)
        reference = random.Random(7)
        assert make_nonce(rng, n_bytes=5) == reference.getrandbits(40).to_bytes(5, "big")
        assert make_nonce(rng, n_bytes=0) == b""
        # Zero-width draws consume nothing.
        assert rng.getstate() == reference.getstate()

    def test_nonces_differ_across_draws(self):
        rng = random.Random(1)
        assert make_nonce(rng) != make_nonce(rng)
