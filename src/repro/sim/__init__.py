"""Discrete-event simulation substrate (the Narses replacement).

The paper evaluates the LOCKSS attrition defenses with Narses, a flow-based
discrete-event simulator.  This package provides the equivalent substrate in
pure Python:

* :mod:`repro.sim.engine` — an event queue with simulated time, cancellable
  events, and periodic processes.
* :mod:`repro.sim.randomness` — deterministic, named RNG streams derived from
  a master seed so that every subsystem (network, storage failures, protocol
  choices, adversary) draws from an independent, reproducible stream.
* :mod:`repro.sim.network` — the simplistic delay-based network model used by
  the paper (bandwidth + latency, no congestion) plus the pipe-stoppage
  mechanism used by the network-level adversary.
"""
