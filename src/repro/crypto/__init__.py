"""Cryptographic cost models: hashing, nonces, and proofs of effort.

The protocol's attrition defenses rest on *effort economics*: every protocol
step is priced so that the requester of a service always has more invested in
an exchange than the supplier.  This package provides

* :mod:`repro.crypto.hashing` — a content-hash model (real SHA-256 over small
  synthetic content for unit-level fidelity, plus a cost model translating
  bytes hashed into seconds of compute on the paper's reference low-cost PC);
* :mod:`repro.crypto.effort` — memory-bound-function (MBF) style proofs of
  effort with declared generation cost, cheap verification, and the 160-bit
  unforgeable byproduct the protocol reuses as an evaluation receipt.
"""
