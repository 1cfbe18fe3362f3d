"""Composed-adversary campaign families: combined and adaptive attacks.

The paper's taxonomy (Sections 4 and 6.2) explicitly includes *combinations*
of attrition attacks and adversaries that adapt their strategy to what they
observe.  With the composable strategy API these are campaign files over
structured ``"composed"`` adversary specs, not new adversary classes (see
docs/ADVERSARIES.md):

* ``combined_attack`` — the protocol-level admission flood and the effortful
  brute-force vector *concurrently* against the same victim cycles, swept
  over targeting coverage (a network blackout cannot join them concurrently:
  it would drop their traffic too; sequence it with the ``rotate`` adaptive
  policy or a ``piecewise`` schedule instead);
* ``adaptive_attack`` — a vector-switching attacker that probes with the
  brute-force vector and escalates to pipe stoppage once its observed
  admission rate degrades past a threshold (swept over the threshold);
* ``adversary_matrix`` — the 2x2 (targeting kind x attack vector) mini-grid
  of the ``adversary-matrix`` CI smoke job;
* ``delayed_attack_sweep`` — a coverage sweep behind a long zero-intensity
  lead phase (the adversary lurks, then strikes); the benchmark shape for
  ``campaign run --fork-prefixes`` prefix reuse.

This module holds their ``"composed_attack"`` row exporter.
"""

from __future__ import annotations

from typing import Dict, List

from ..api.resultset import ResultSet, row_exporter


@row_exporter("composed_attack")
def composed_attack_export(results: ResultSet) -> List[Dict[str, object]]:
    """One row per composed-attack point: axis values plus the paper metrics."""
    rows: List[Dict[str, object]] = []
    for point in results:
        assessment = point.assessment
        row: Dict[str, object] = {
            "label": point.label,
            "access_failure_probability": assessment.access_failure_probability,
            "delay_ratio": assessment.delay_ratio,
            "coefficient_of_friction": assessment.coefficient_of_friction,
            "cost_ratio": assessment.cost_ratio,
            "successful_polls": point.attacked.polls.successful,
            "failed_polls": point.attacked.polls.failed,
        }
        row.update(point.parameters)
        rows.append(row)
    return rows
