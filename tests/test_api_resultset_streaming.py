"""Streaming result sets: lazy loading, iterator surfaces, and the
rows digest."""

import enum
import hashlib

import pytest

from repro import units
from repro.api import Campaign, CampaignRunner, ResultStore, Scenario, Session
from repro.api.resultset import ResultSet, digest_rows, encode_rows
from repro.api.scenario import canonical_json


def canonical_digest(rows):
    """The committed benchmark digests' definition: sha256 of ``canonical_json``."""
    return hashlib.sha256(canonical_json(list(rows)).encode("utf-8")).hexdigest()


def run_small_campaign(tmp_path, points=2):
    base = Scenario(
        name="stream test",
        base="smoke",
        sim={"duration": units.months(2)},
        seeds=(1,),
    )
    campaign = Campaign.from_grid(
        "stream", base, {"sim.n_aus": list(range(1, points + 1))}
    )
    runner = CampaignRunner(Session(store=ResultStore(tmp_path / "store")))
    runner.run(campaign)
    return runner, campaign


class TestLazyResultSet:
    def test_loader_and_points_are_exclusive(self):
        with pytest.raises(ValueError):
            ResultSet(points=[], loader=lambda: iter([]))

    def test_len_uses_count_without_loading(self):
        calls = []

        def loader():
            calls.append(1)
            return iter([])

        lazy = ResultSet.lazy(loader, count=7)
        assert len(lazy) == 7
        assert calls == []  # len() never touched the loader

    def test_streaming_surfaces_do_not_materialize(self, tmp_path):
        runner, campaign = run_small_campaign(tmp_path)
        lazy = runner.result_set(campaign, lazy=True)
        rows = list(lazy.iter_rows())
        mean = lazy.aggregate("assessment.access_failure_probability")
        observed = sum(1 for _ in lazy.observations(kinds=("polls",)))
        assert len(rows) == 2
        assert mean >= 0.0
        assert observed > 0
        assert lazy._points is None  # never materialized

    def test_lazy_and_eager_agree(self, tmp_path):
        runner, campaign = run_small_campaign(tmp_path)
        eager = runner.result_set(campaign)
        lazy = runner.result_set(campaign, lazy=True)
        assert lazy.rows() == eager.rows()
        assert lazy.values("label") == eager.values("label")
        # Random access materializes the lazy set transparently.
        assert lazy[0].digest == eager[0].digest
        assert lazy._points is not None

    def test_iter_results_raises_on_missing_point(self, tmp_path):
        runner, campaign = run_small_campaign(tmp_path)
        bigger = Campaign.from_grid(
            "stream-bigger",
            campaign.scenario,
            {"sim.n_aus": [1, 2, 3]},
        )
        with pytest.raises(LookupError, match="missing"):
            list(runner.iter_results(bigger))

    def test_custom_reducer_still_gets_a_sequence(self, tmp_path):
        runner, campaign = run_small_campaign(tmp_path)
        lazy = runner.result_set(campaign, lazy=True)
        top = lazy.aggregate("assessment.access_failure_probability", reducer=max)
        assert top >= 0.0


class TestIncrementalDigest:
    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [{"a": 1}],
            [{"b": 1.5, "a": [1, 2, {"c": None}]}, {"x": "ünïcode"}, {"y": True}],
        ],
    )
    def test_matches_the_batch_digest(self, rows):
        assert digest_rows(iter(rows)) == digest_rows(rows) == canonical_digest(rows)

    def test_consumes_a_generator_once(self):
        rows = [{"i": i} for i in range(5)]
        assert digest_rows(row for row in rows) == canonical_digest(rows)


class Plain(enum.Enum):
    A = "a"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Mode(str, enum.Enum):
    FAST = "fast"


class Ratio(float, enum.Enum):
    HALF = 0.5


class TestOneEncoder:
    """``encode_rows`` writes what ``canonical_json`` writes, or raises: a row
    value ``canonical_json`` would have converted never encodes differently."""

    @pytest.mark.parametrize(
        "row",
        [
            {"t": (1, 2.5, "x")},
            {"t": [(1, (2, 3))], "n": {"u": ()}},
            {"level": Level.HIGH, "mode": Mode.FAST, "ratio": Ratio.HALF},
            {"levels": [Level.LOW, Level.HIGH], "nested": {"mode": Mode.FAST}},
            {"nan": float("nan"), "inf": float("inf"), "neg": -0.0},
        ],
    )
    def test_same_bytes_as_canonical_json(self, row):
        assert encode_rows([row]) == canonical_json([row]).encode("utf-8")

    @pytest.mark.parametrize(
        "row",
        [
            {"plain": Plain.A},
            {"nested": [{"plain": Plain.A}]},
            {1: "int key"},
            {"m": {10: "a", 9: "b"}},
            {"m": {True: 1}},
            {"m": {None: 1}},
            {"m": {1.5: 1}},
            {"m": [{Mode.FAST: 1}]},
            {Level.LOW: 1},
        ],
    )
    def test_otherwise_raises(self, row):
        with pytest.raises(TypeError):
            encode_rows([row])
