"""Fault-injection experiments: churn baselines and partition-assisted attacks.

Two campaign families exercise the :mod:`repro.faults` subsystem at bench
scale:

* ``churn_baseline`` — no adversary, Poisson churn swept over the per-peer
  leave rate.  Measures how much graceful degradation plain membership
  turnover costs the defended population: departing peers lose their
  replicas and reference lists, so every rejoin forces re-audit and repair
  traffic.
* ``partition_attack`` — an admission flood riding a network partition
  window, swept over the partition duration.  The partition suppresses
  cross-group polling while the flood keeps victims in their refractory
  periods, so the combination probes whether recovery after the partition
  heals stays graceful.

Both export through the ``"fault_sweep"`` row exporter below, which extends
the standard attack columns with the graceful-degradation metrics
(:class:`~repro.api.observations.FaultObservation`).
"""

from __future__ import annotations

from typing import Dict, List

from ..api.resultset import ResultSet, row_exporter


@row_exporter("fault_sweep")
def fault_sweep_export(results: ResultSet) -> List[Dict[str, object]]:
    """One row per point: attack metrics plus graceful-degradation columns."""
    rows: List[Dict[str, object]] = []
    for point in results:
        assessment = point.assessment
        faults = point.attacked.faults
        row: Dict[str, object] = dict(point.parameters)
        row.update(
            {
                "access_failure_probability": assessment.access_failure_probability,
                "delay_ratio": assessment.delay_ratio,
                "coefficient_of_friction": assessment.coefficient_of_friction,
                "successful_polls": point.attacked.polls.successful,
                "failed_polls": point.attacked.polls.failed,
                "fault_crashes": faults.crashes,
                "fault_churn_leaves": faults.churn_leaves,
                "fault_churn_rejoins": faults.churn_rejoins,
                "fault_downtime_days": faults.downtime_days,
                "fault_availability": faults.availability,
                "fault_damage_while_down": faults.damage_while_down,
                "fault_partition_dropped": faults.partition_dropped,
                "fault_recoveries": faults.recoveries,
                "fault_mean_recovery_days": faults.mean_recovery_days,
                "fault_recovery_repairs": faults.recovery_repairs,
            }
        )
        rows.append(row)
    return rows
