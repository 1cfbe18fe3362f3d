"""Storage substrate: archival units, block replicas, and failure injection.

Every peer preserves its own replica of each archival unit (AU) it holds.  A
replica is modeled at block granularity: votes carry one hash per block,
damage ("bit rot", operator error, tampering) strikes individual blocks, and
repairs transfer individual blocks.  The storage-failure injector implements
the paper's damage model: a Poisson process damaging one random block of one
random AU at a rate of one block per 1–5 disk-years (50 AUs per disk).
"""
