"""Figure 2 — baseline access failure probability vs inter-poll interval.

Paper shape: the access failure probability rises with the inter-poll
interval (damage goes undetected for longer) and with the storage failure
rate; the reference operating point (3-month polls, 5-year MTBF) sits around
5e-4.  At bench scale the damage rate is inflated for resolution; the
normalized column divides it back out for comparison with the paper.
"""

from _shared import BENCH_SEEDS, bench_configs, column, print_series

from repro.api.session import default_session
from repro.experiments.baseline import baseline_sweep, format_figure2


def _run_sweep():
    protocol, sim = bench_configs()
    return baseline_sweep(
        poll_intervals_months=(2.0, 3.0, 6.0, 12.0),
        storage_mtbf_years=(5.0,),
        collection_sizes=(1,),
        seeds=BENCH_SEEDS,
        protocol_config=protocol,
        sim_config=sim,
    )


def test_bench_figure2_baseline(benchmark):
    default_session().clear_cache()
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    print_series(
        "Figure 2 - baseline access failure vs inter-poll interval (no attack)",
        format_figure2(rows),
        notes=[
            "access_failure_probability is measured with an inflated damage "
            "rate; divide by the inflation factor (normalized column in "
            "EXPERIMENTS.md) to compare with the paper's ~5e-4 at 3 months.",
        ],
    )
    failures = column(rows, "access_failure_probability")
    assert len(failures) == 4
    # Shape: longer poll intervals never make things better; the 12-month
    # interval is clearly worse than the 2-month interval.
    assert failures[-1] >= failures[0]
    assert all(0.0 <= value < 0.5 for value in failures)
