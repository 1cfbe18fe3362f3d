"""Experiment harness reproducing the paper's evaluation.

Each module corresponds to one artifact of Section 7:

* :mod:`repro.experiments.baseline` — Figure 2 (baseline access failure vs
  inter-poll interval and storage failure rate, no attack).
* :mod:`repro.experiments.pipe_stoppage` — Figures 3–5 (pipe stoppage:
  access failure, delay ratio, coefficient of friction vs attack duration and
  coverage).
* :mod:`repro.experiments.admission_attack` — Figures 6–8 (admission-control
  garbage-invitation flood: the same three metrics).
* :mod:`repro.experiments.effortful` — Table 1 (brute-force effortful
  adversary defecting at INTRO / REMAINING / NONE).
* :mod:`repro.experiments.ablation` — ablations of individual defenses
  (admission control, effort balancing, desynchronization) called out in
  DESIGN.md.
* :mod:`repro.experiments.composed` — the composed-adversary families
  (combined multi-vector attack, adaptive vector switching, and the
  targeting x vector matrix; see docs/ADVERSARIES.md).

Every figure has one entry point: its ``*_campaign`` factory returns the
parameter grid as a declarative :class:`repro.api.Campaign`, and
``repro.api.campaign_rows(campaign, session=...)`` runs it and exports its
rows.  :mod:`repro.experiments.bench` calls the same factories at laptop
scale for the digest-pinned artifacts, and holds the paper's claims about
each figure's rows next to the artifact they describe.

:mod:`repro.experiments.world` builds a simulated world from configuration;
:mod:`repro.experiments.attacks` expresses the duration x coverage attack
sweeps as one campaign shape; :mod:`repro.experiments.reporting` renders rows
as text tables.  Runs execute through :class:`repro.api.Session`.
"""

from .attacks import attack_sweep_campaign

# Importing the artifact modules registers their named row exporters
# ("figure2", "table1", "ablation_*"), so `repro.api.resultset.export_rows`
# can resolve any campaign loaded from JSON after `import repro.experiments`.
from . import ablation as _ablation  # noqa: F401
from . import baseline as _baseline  # noqa: F401
from . import composed as _composed  # noqa: F401
from . import effortful as _effortful  # noqa: F401
from . import faults as _faults  # noqa: F401
from ..api.session import ExperimentResult
from .world import World, build_world
from .reporting import format_table

__all__ = [
    "World",
    "build_world",
    "attack_sweep_campaign",
    "ExperimentResult",
    "format_table",
]
