"""Property-based test (hypothesis): campaign status is a function of the
store — result artifacts decide ``complete``, the manifest's failure record
decides ``failed`` — across any mix of failing points, ``max_points`` caps
and a Ctrl-C, and a clean resume ends on the uninterrupted run's digests."""

import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import (
    AdversarySpec,
    Campaign,
    CampaignRunner,
    ResultStore,
    Scenario,
    Session,
)
from repro.api import session as session_module
from repro.api.resultset import digest_rows

COVERAGES = [0.2, 0.4, 0.7, 1.0]

CAMPAIGN = Campaign.from_grid(
    "status property",
    Scenario(
        name="status property",
        base="smoke",
        sim={"duration": units.months(2)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 20.0, "coverage": 1.0, "recuperation_days": 10.0},
        ),
        seeds=(1,),
    ),
    {"adversary.coverage": COVERAGES},
)

_REAL = session_module.execute_point
_RUNS = {}  # simulated once per distinct run, shared by every example


class Executor:
    """execute_point stand-in: attacked runs of ``poisoned`` point indices
    fail, the attacked run of point ``interrupt`` raises KeyboardInterrupt."""

    def __init__(self, poisoned):
        self.poisoned = poisoned
        self.interrupt = None

    def __call__(self, scenario, seed, baseline=False, registry=None, trace_path=None):
        if not baseline:
            index = COVERAGES.index(scenario.adversary.params["coverage"])
            if index == self.interrupt:
                raise KeyboardInterrupt()
            if index in self.poisoned:
                raise RuntimeError("poisoned point")
        key = (scenario.digest, seed, baseline)
        if key not in _RUNS:
            _RUNS[key] = _REAL(scenario, seed, baseline=baseline, registry=registry)
        return _RUNS[key]


def run_call(store, max_points):
    runner = CampaignRunner(Session(store=store, retries=0, retry_backoff=0.0))
    try:
        runner.run(CAMPAIGN, max_points=max_points)
    except KeyboardInterrupt:
        pass
    return runner


def model_call(state, poisoned, interrupt, max_points):
    """What one ``run`` call does to {index: 'complete'|'failed'|'pending'}."""
    pending = [index for index in sorted(state) if state[index] != "complete"]
    for index in pending[:max_points]:
        if index == interrupt:
            break
        state[index] = "failed" if index in poisoned else "complete"


@pytest.fixture(scope="module")
def reference_digest():
    with tempfile.TemporaryDirectory() as root:
        runner = CampaignRunner(Session(store=ResultStore(root)))
        runner.run(CAMPAIGN)
        return digest_rows(runner.rows(CAMPAIGN))


calls = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=len(COVERAGES))),
        st.one_of(st.none(), st.integers(min_value=0, max_value=len(COVERAGES) - 1)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(st.frozensets(st.integers(min_value=0, max_value=len(COVERAGES) - 1)), calls)
def test_status_tracks_results_and_last_failures(reference_digest, poisoned, calls):
    executor = Executor(poisoned)
    state = {index: "pending" for index in range(len(COVERAGES))}
    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        session_module, "execute_point", executor
    ):
        store = ResultStore(root)
        for max_points, interrupt in calls:
            executor.interrupt = interrupt
            runner = run_call(store, max_points)
            model_call(state, poisoned, interrupt, max_points)
            payload = runner.status(CAMPAIGN).to_dict()
            assert {p["index"]: p["state"] for p in payload["points"]} == state
            for entry in payload["points"]:
                assert ("error" in entry) == (entry["state"] == "failed")
                assert "poisoned point" in entry.get("error", "poisoned point")
        # The causes are gone: a resume finishes on the uninterrupted digests.
        executor.poisoned, executor.interrupt = frozenset(), None
        runner = run_call(store, None)
        assert runner.status(CAMPAIGN).complete
        assert digest_rows(runner.rows(CAMPAIGN)) == reference_digest
