"""Archival units (AUs) and canonical content.

An AU is the unit of preservation — in the target application, a year's run
of an on-line journal obtained from the publisher.  The simulation treats the
publisher's original as the canonical content; every loyal peer starts with a
correct replica of it.

Two representations coexist:

* the *cost-model* representation used in experiments: only the AU's size,
  block structure, and per-block damage state matter (identical undamaged
  blocks hash identically by construction);
* the *materialized* representation used in unit tests and examples: small
  synthetic AUs with real bytes, hashed with real digests, so the protocol's
  correctness-critical paths (running hashes, block comparison, repair
  application) are exercised against real data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ArchivalUnit:
    """Description of one archival unit."""

    au_id: str
    size_bytes: int
    block_size: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("AU size must be positive")
        if self.block_size <= 0:
            raise ValueError("block size must be positive")
        if self.block_size > self.size_bytes:
            raise ValueError("block size cannot exceed AU size")

    @property
    def n_blocks(self) -> int:
        """Number of content blocks (the last block may be partial)."""
        return (self.size_bytes + self.block_size - 1) // self.block_size

    def block_length(self, index: int) -> int:
        """Length in bytes of block ``index``."""
        if not 0 <= index < self.n_blocks:
            raise IndexError("block index %d out of range" % index)
        if index == self.n_blocks - 1:
            remainder = self.size_bytes - self.block_size * (self.n_blocks - 1)
            return remainder if remainder > 0 else self.block_size
        return self.block_size


def synthetic_content(au: ArchivalUnit, version: int = 0) -> List[bytes]:
    """Deterministically generate the canonical block contents of ``au``.

    The content of each block is derived from the AU identifier, the block
    index, and a ``version`` counter (bumped when a publisher re-issues the
    AU), so any two peers generating the same AU obtain identical bytes
    without shipping gigabytes around.  Only intended for small AUs used in
    tests and examples.
    """
    blocks: List[bytes] = []
    for index in range(au.n_blocks):
        length = au.block_length(index)
        seed = ("%s/%d/%d" % (au.au_id, version, index)).encode("utf-8")
        chunk = b""
        counter = 0
        while len(chunk) < length:
            chunk += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            counter += 1
        blocks.append(chunk[:length])
    return blocks


class ContentStore:
    """Materialized block store for small AUs (tests and examples).

    Stores actual block bytes, supports damaging a block (overwriting it with
    corrupt bytes) and repairing it from a supplied good block.
    """

    def __init__(self, au: ArchivalUnit, blocks: Optional[List[bytes]] = None) -> None:
        self.au = au
        self._blocks: List[bytes] = list(blocks) if blocks is not None else synthetic_content(au)
        if len(self._blocks) != au.n_blocks:
            raise ValueError(
                "expected %d blocks, got %d" % (au.n_blocks, len(self._blocks))
            )

    def block(self, index: int) -> bytes:
        return self._blocks[index]

    def blocks(self) -> List[bytes]:
        return list(self._blocks)

    def corrupt_block(self, index: int) -> None:
        """Overwrite block ``index`` with corrupt (but same-length) bytes."""
        original = self._blocks[index]
        garbage = hashlib.sha256(b"bitrot" + original).digest()
        repeated = (garbage * (len(original) // len(garbage) + 1))[: len(original)]
        self._blocks[index] = repeated

    def write_block(self, index: int, data: bytes) -> None:
        """Install repair ``data`` as block ``index``."""
        expected = self.au.block_length(index)
        if len(data) != expected:
            raise ValueError(
                "repair block length %d does not match expected %d" % (len(data), expected)
            )
        self._blocks[index] = data

    def digest_map(self) -> Dict[int, bytes]:
        """Per-block digests, used by tests to compare stores cheaply."""
        return {i: hashlib.sha256(b).digest() for i, b in enumerate(self._blocks)}
