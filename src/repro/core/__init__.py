"""The LOCKSS audit-and-repair protocol with attrition defenses.

This package is the paper's primary contribution: the redesigned LOCKSS
opinion-poll protocol whose admission control (rate limitation, first-hand
reputation, effort balancing), desynchronization, and redundancy defenses make
application-level attrition attacks less effective than network-level
flooding.

Module map:

* :mod:`repro.core.messages` — the seven protocol messages
  (Poll/PollAck/PollProof/Vote/RepairRequest/Repair/EvaluationReceipt).
* :mod:`repro.core.scheduler` — the per-peer task schedule of compute
  commitments; admission refuses what cannot be scheduled.
* :mod:`repro.core.reputation` — first-hand reputation grades (debt / even /
  credit), decay, refractory periods, and introductions.
* :mod:`repro.core.reference_list` — reference list and friends list
  maintenance, inner-circle sampling, discovery bookkeeping.
* :mod:`repro.core.effort_policy` — effort-balancing arithmetic: how much
  provable effort each message must carry.
* :mod:`repro.core.admission` — the admission-control filter applied to
  inbound poll invitations.
* :mod:`repro.core.voter` — the voter-side session state machine.
* :mod:`repro.core.poller` — the poller-side poll state machine.
* :mod:`repro.core.peer` — a complete LOCKSS peer tying the pieces together.
"""
