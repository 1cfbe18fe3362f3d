"""Replay signatures: binding a trace to what produced it.

A trace is only replayable against the exact code that wrote it: the event
kernel's ordering semantics (:data:`~repro.sim.engine.KERNEL_VERSION`), the
nonce derivation scheme
(:data:`~repro.crypto.hashing.NONCE_STREAM_VERSION`), and the trace format
itself.  The signature also pins the *content* of the run — the scenario's
configuration digest, the per-point run digest, the master seed, and the
baseline flag — so a trace recorded from one scenario cannot silently
"verify" against an edited one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..crypto.hashing import NONCE_STREAM_VERSION
from ..sim.engine import KERNEL_VERSION

#: Magic string identifying the trace container format.
TRACE_FORMAT = "repro-replay-trace"

#: Version of the trace record grammar (see docs/REPLAY.md).  Bump whenever
#: a record shape changes or a new record kind is added.
TRACE_VERSION = 2


class SignatureMismatch(Exception):
    """A trace or checkpoint was produced under incompatible versions/content."""


@dataclass(frozen=True)
class ReplaySignature:
    """Versions and content digests stamped into every trace header."""

    scenario_digest: str
    run_digest: str
    master_seed: int
    baseline: bool
    kernel_version: int = KERNEL_VERSION
    nonce_stream_version: int = NONCE_STREAM_VERSION
    trace_version: int = TRACE_VERSION

    @classmethod
    def for_point(cls, scenario, seed: int, baseline: bool) -> "ReplaySignature":
        """The signature of one scenario point under the current code."""
        return cls(
            scenario_digest=scenario.digest,
            run_digest=scenario.point_digest(seed, baseline=baseline),
            master_seed=int(seed),
            baseline=bool(baseline),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario_digest": self.scenario_digest,
            "run_digest": self.run_digest,
            "master_seed": self.master_seed,
            "baseline": self.baseline,
            "kernel_version": self.kernel_version,
            "nonce_stream_version": self.nonce_stream_version,
            "trace_version": self.trace_version,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ReplaySignature":
        try:
            return cls(
                scenario_digest=str(payload["scenario_digest"]),
                run_digest=str(payload["run_digest"]),
                master_seed=int(payload["master_seed"]),
                baseline=bool(payload["baseline"]),
                kernel_version=int(payload["kernel_version"]),
                nonce_stream_version=int(payload["nonce_stream_version"]),
                trace_version=int(payload["trace_version"]),
            )
        except KeyError as exc:
            raise SignatureMismatch("trace signature is missing field %s" % exc)

    def check_replayable(self, scenario, seed: int, baseline: bool) -> None:
        """Raise :class:`SignatureMismatch` unless this trace can be replayed now.

        ``scenario`` is the scenario rebuilt from the trace's own embedded
        dict; recomputing its digests under the *current* code catches any
        drift in config resolution or digest derivation since recording.
        """
        current = ReplaySignature.for_point(scenario, seed, baseline)
        mismatches = []
        for field_name in (
            "trace_version",
            "kernel_version",
            "nonce_stream_version",
            "scenario_digest",
            "run_digest",
            "master_seed",
            "baseline",
        ):
            recorded = getattr(self, field_name)
            expected = getattr(current, field_name)
            if recorded != expected:
                mismatches.append(
                    "%s: trace has %r, current code expects %r"
                    % (field_name, recorded, expected)
                )
        if mismatches:
            raise SignatureMismatch(
                "trace is not replayable under the current code: "
                + "; ".join(mismatches)
            )
