"""Evaluation metrics.

The paper evaluates the attrition defenses with four metrics (Section 6.1):

* **access failure probability** — fraction of all replicas in the system
  that are damaged, averaged over all sampling points of the experiment;
* **delay ratio** — mean time between successful polls at loyal peers under
  attack, divided by the same measurement without the attack;
* **coefficient of friction** — average effort expended by loyal peers per
  successful poll during an attack, divided by the per-poll effort absent an
  attack;
* **cost ratio** — total effort expended by the attackers divided by that of
  the defenders.

:mod:`repro.metrics.polls` collects per-poll outcomes, :mod:`repro.metrics.access`
samples replica damage over time, and :mod:`repro.metrics.report` combines
them (together with the effort accounts) into the four paper metrics —
the ratio metrics are computed against a matching baseline (no-attack) run.
"""
