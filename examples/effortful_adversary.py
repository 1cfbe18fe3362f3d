#!/usr/bin/env python
"""Scenario: a well-funded adversary pays the toll and tries to waste effort.

The brute-force adversary of Section 7.4 is willing to spend real compute: it
attaches valid introductory effort to every invitation (from identities that
are in debt at their victims), gets past admission control at the allowed
rate, and then tries to hurt the defenders by deserting the exchange at
different points:

* INTRO      - never follows up the invitation (reservation attack);
* REMAINING  - extracts the expensive vote, never acknowledges it;
* NONE       - plays the protocol to the letter (emulates legitimacy).

The example regenerates the Table 1 comparison and shows the paper's
conclusion: the best the attacker can do is behave like a large number of new
loyal peers, and even that only raises the defenders' cost by a small
constant factor that over-provisioning absorbs.

The grid is the committed laptop-scale campaign file
``examples/campaigns/laptop_table1.json`` (20 peers, 2 AUs, one simulated
year); ``repro-experiments campaign run examples/campaigns/laptop_table1.json``
runs the same points.

Run:  python examples/effortful_adversary.py
"""

from __future__ import annotations

from pathlib import Path

from repro.api import Campaign, campaign_rows
from repro.experiments.effortful import TABLE1_COLUMNS
from repro.experiments.reporting import format_table

CAMPAIGN = Path(__file__).resolve().parent / "campaigns" / "laptop_table1.json"


def main() -> None:
    print("Running the brute-force adversary at three defection points ...")
    rows = campaign_rows(Campaign.load(CAMPAIGN))
    print()
    print(format_table(TABLE1_COLUMNS, [[row.get(c) for c in TABLE1_COLUMNS] for row in rows]))
    print()
    print("Paper's Table 1 (50-AU collection) for comparison:")
    print("  INTRO     : friction 1.40, cost ratio 1.93, delay 1.11, access 4.99e-4")
    print("  REMAINING : friction 2.61, cost ratio 1.55, delay 1.11, access 5.90e-4")
    print("  NONE      : friction 2.60, cost ratio 1.02, delay 1.11, access 5.58e-4")
    print()
    print(
        "Shape to look for: extracting full votes (REMAINING/NONE) costs the\n"
        "defenders the most per successful poll, but full participation is the\n"
        "attacker's only way to avoid paying disproportionately for the damage it\n"
        "causes (lowest cost ratio) -- and even then the rate limits keep the\n"
        "access failure probability within a small factor of the baseline."
    )


if __name__ == "__main__":
    main()
