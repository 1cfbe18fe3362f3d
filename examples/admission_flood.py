#!/usr/bin/env python
"""Scenario: a Sybil attacker floods peers with garbage poll invitations.

The attacker owns unlimited network identities but does not want to spend
compute, so it sends cheap invitations whose "proofs of effort" are garbage.
Its goal is to keep every victim inside its refractory period so that poll
invitations from unknown or in-debt *loyal* peers get dropped too, slowly
starving discovery.  The example shows what the admission-control defense
(random drops, refractory periods, per-peer consideration limits,
introductions) makes of this: the attack's only real effect is some wasted
introductory effort at loyal pollers.

Run:  python examples/admission_flood.py
"""

from __future__ import annotations

from repro import AdversarySpec, Scenario, Session, scaled_config, units
from repro.api.session import build_point_world
from repro.experiments.reporting import format_table


def main() -> None:
    protocol, sim = scaled_config(n_peers=20, n_aus=2, duration=units.years(1), seed=23)
    scenario = Scenario.from_configs(
        "admission flood",
        protocol,
        sim,
        adversary=AdversarySpec(
            "admission_flood",
            {
                "attack_duration_days": 300.0,
                "coverage": 1.0,
                "invitations_per_victim_per_day": 8.0,
            },
        ),
        seeds=(23,),
    )

    print("Running the attacked world (full coverage, 300-day flood) ...")
    assessment = Session().run(scenario).assessment

    # Re-run one world directly to inspect the admission-control counters.
    print("Re-running one attacked world to inspect the admission filters ...")
    world = build_point_world(scenario, seed=23)
    world.run()
    admitted = dropped_random = dropped_refractory = rate_limited = triggers = 0
    for peer in world.peers:
        for au in world.aus:
            stats = peer.au_state(au.au_id).admission.stats
            admitted += stats.admitted + stats.admitted_introduced
            dropped_random += stats.dropped_random
            dropped_refractory += stats.dropped_refractory
            rate_limited += stats.dropped_rate_limited
            triggers += peer.au_state(au.au_id).admission.refractory.triggers

    print()
    print(format_table(
        ["metric", "value"],
        [
            ["garbage invitations sent by the attacker", world.adversary.invitations_sent],
            ["invitations admitted for consideration", admitted],
            ["invitations dropped by the random-drop filter", dropped_random],
            ["invitations dropped inside refractory periods", dropped_refractory],
            ["invitations dropped by per-peer rate limits", rate_limited],
            ["refractory periods triggered", triggers],
            ["attacker compute effort spent", world.adversary_effort()],
        ],
    ))

    print()
    print(format_table(
        ["paper metric", "value"],
        [
            ["access failure probability (attacked)", assessment.access_failure_probability],
            [
                "access failure probability (baseline)",
                assessment.baseline.access_failure_probability,
            ],
            ["delay ratio", round(assessment.delay_ratio, 3)],
            ["coefficient of friction", round(assessment.coefficient_of_friction, 3)],
            ["cost ratio", "n/a (effortless attack)"],
        ],
    ))

    print()
    print(
        "Reading the table: nearly all garbage lands in the random-drop or\n"
        "refractory filters at negligible cost; content safety and poll timeliness\n"
        "are untouched, and the only visible symptom is a modest rise in the cost\n"
        "of each successful poll (Figures 6-8 of the paper)."
    )


if __name__ == "__main__":
    main()
