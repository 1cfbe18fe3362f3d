#!/usr/bin/env python
"""Quickstart: preserve a small collection with the LOCKSS audit protocol.

Describes a laptop-scale preservation experiment as a declarative
``Scenario``, runs it through a parallel ``Session`` (no adversary first,
then a pipe-stoppage attack against the same population), and prints the
headline metrics: how often polls succeed, how much compute the defenses
cost, how likely a reader is to hit a damaged replica, and what the attack
changed.

The attack scenario is also written to ``quickstart_scenario.json`` so the
same experiment can be re-run from the command line:

    repro-experiments campaign run quickstart_scenario.json --workers 2

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import AdversarySpec, Scenario, Session, scaled_config, units
from repro.experiments.reporting import format_table


def main() -> None:
    protocol, sim = scaled_config(n_peers=20, n_aus=2, duration=units.years(1), seed=7)
    print("Population      : %d peers" % sim.n_peers)
    print("Collection      : %d AUs of %s each" % (sim.n_aus, units.format_size(sim.au_size)))
    print("Poll interval   : %s" % units.format_duration(protocol.poll_interval))
    print("Quorum          : %d votes (inner circle of %d)" % (
        protocol.quorum, protocol.inner_circle_size))
    print("Simulating %s of preservation ..." % units.format_duration(sim.duration))
    print()

    # One session runs every scenario; seeds execute on a 2-worker process
    # pool and per-seed runs are cached by content digest, so the attack
    # scenario below reuses this baseline automatically.
    session = Session(workers=2)

    quiet = Scenario.from_configs("quiet year", protocol, sim, seeds=(7,))
    metrics = session.run(quiet).assessment.attacked

    print(format_table(
        ["metric", "value"],
        [
            ["successful polls", metrics.successful_polls],
            ["failed polls", metrics.failed_polls],
            ["operator alarms (inconclusive polls)", metrics.inconclusive_polls],
            ["storage failures injected", int(metrics.extras["storage_failures"])],
            ["repairs applied", int(metrics.extras["repairs_applied"])],
            ["access failure probability (raw)", metrics.access_failure_probability],
            [
                "access failure probability (normalized)",
                metrics.access_failure_probability / sim.storage_damage_inflation,
            ],
            [
                "mean time between successful polls",
                units.format_duration(metrics.mean_time_between_successful_polls),
            ],
            ["loyal compute effort (s)", round(metrics.loyal_effort, 1)],
            [
                "effort per successful poll (s)",
                round(metrics.effort_per_successful_poll, 2),
            ],
        ],
    ))

    # Now attack the same population: a 60-day full-coverage network blackout
    # (the paper's pipe-stoppage adversary), described declaratively.
    attack = Scenario.from_configs(
        "pipe stoppage, 60 days, full coverage",
        protocol,
        sim,
        adversary=AdversarySpec(
            "pipe_stoppage", {"attack_duration_days": 60.0, "coverage": 1.0}
        ),
        seeds=(7,),
    )
    assessment = session.run(attack).assessment

    print()
    print("Under attack (%s):" % attack.name)
    print(format_table(
        ["metric", "value"],
        [
            ["delay ratio (vs quiet year)", round(assessment.delay_ratio, 3)],
            ["coefficient of friction", round(assessment.coefficient_of_friction, 3)],
            ["access failure probability (raw)", assessment.access_failure_probability],
            [
                "adversary effort (s)",
                round(assessment.attacked.adversary_effort, 1),
            ],
        ],
    ))

    path = attack.save("quickstart_scenario.json")
    print()
    print("Attack scenario written to %s (digest %s)." % (path, attack.digest[:12]))
    print("Re-run it with: repro-experiments campaign run %s --workers 2" % path)
    print()
    print(
        "Note: the storage damage rate is inflated %.0fx at this scale so the small\n"
        "population sees a useful number of damage/repair episodes; the normalized\n"
        "access failure probability is the number to compare with the paper's ~5e-4."
        % sim.storage_damage_inflation
    )


if __name__ == "__main__":
    main()
