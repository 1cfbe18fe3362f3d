"""Campaign execution service: shared store backend, broker, workers, HTTP API.

This package turns the repo from a script collection into a long-running
experiment *service*:

* :class:`~repro.service.sqlite_store.SQLiteResultStore` — a WAL-mode
  SQLite backend behind the :class:`~repro.api.store.ResultStore`
  interface (one table per artifact kind, replay traces as gzip blobs on
  disk), selected by ``--store results.db`` via
  :func:`~repro.api.store.open_store` and fed from an existing JSON-file
  store with ``repro-experiments store migrate``.
* :class:`~repro.service.broker.Broker` — owns campaign manifests in the
  SQLite store and leases points to workers with heartbeats, lease expiry,
  and crash-safe re-leasing (the ``failed``-point machinery campaign
  ``resume`` already uses, generalized to a worker fleet).
* :class:`~repro.service.worker.Worker` — the work-stealing loop: lease a
  batch of points, run each through a :class:`~repro.api.session.Session`
  (honoring ``timeout`` / ``retries`` / ``record``), report the batch's
  results by content digest, repeat until the queue drains.
* :mod:`~repro.service.http_api` — ``repro-experiments serve``: a stdlib
  ``ThreadingHTTPServer`` JSON API to submit campaigns, poll status, fetch
  rows, and drive remote workers (``repro-experiments worker --connect``).

The invariant that makes the whole subsystem safe is digest discipline:
every run, result, and campaign manifest is keyed by content digest, so a
campaign drained by N workers (with any of them killed mid-run) produces
bit-identical row digests to a single-process
:class:`~repro.api.campaign.CampaignRunner` run of the same campaign.
See docs/SERVICE.md.
"""

from .broker import Broker, Lease
from .http_api import ExperimentService, make_server, start_server
from .sqlite_store import SQLiteResultStore
from .worker import HttpBrokerClient, LocalBrokerClient, Worker

__all__ = [
    "Broker",
    "ExperimentService",
    "HttpBrokerClient",
    "Lease",
    "LocalBrokerClient",
    "SQLiteResultStore",
    "Worker",
    "make_server",
    "start_server",
]
