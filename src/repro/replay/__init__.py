"""Record-and-replay subsystem.

Record mode taps the simulation's observable decision points (poll
outcomes, admission decisions, storage damage, adversary windows, message
sends) into a versioned, append-only trace.  Traces carry a
:class:`~repro.replay.signature.ReplaySignature` binding them to the exact
scenario, seed, and engine versions that produced them, and can be:

* replayed tick-by-tick against a freshly built world, verifying every
  record and the final metrics digest (:func:`~repro.replay.replay.replay_trace`);
* compared pairwise to localize the first divergent record
  (:func:`~repro.replay.bisect.first_divergence`);
* complemented by mid-run checkpoints
  (:class:`~repro.replay.checkpoint.Checkpoint`) that snapshot the full
  world — event heap, RNG stream states, peers, network, adversary — for
  prefix-fork workflows: simulate a baseline prefix once, checkpoint, then
  branch N attack suffixes from the same instant.

See ``docs/REPLAY.md`` for the trace schema and workflows.
"""

from .signature import ReplaySignature, SignatureMismatch, TRACE_FORMAT
from .trace import (
    TraceReader,
    TraceWriter,
    Tracer,
    attach_tracer,
    filter_records,
    iter_records,
)
from .checkpoint import Checkpoint, CheckpointError
from .replay import (
    ReplayDivergence,
    ReplayError,
    metrics_digest,
    record_run,
    replay_trace,
)
from .bisect import first_divergence

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "ReplayDivergence",
    "ReplayError",
    "ReplaySignature",
    "SignatureMismatch",
    "TRACE_FORMAT",
    "TraceReader",
    "TraceWriter",
    "Tracer",
    "attach_tracer",
    "filter_records",
    "first_divergence",
    "iter_records",
    "metrics_digest",
    "record_run",
    "replay_trace",
]
