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

:mod:`repro.experiments.world` builds a simulated world from configuration;
:mod:`repro.experiments.attacks` expresses the duration x coverage attack
sweeps as declarative :class:`repro.api.Scenario` objects;
:mod:`repro.experiments.reporting` renders rows as text tables like the ones
in EXPERIMENTS.md.  Runs execute through :class:`repro.api.Session`.
"""

from .attacks import attack_sweep_campaign, attack_sweep_rows, attack_sweep_scenario

# Importing the artifact modules registers their named row exporters
# ("figure2", "table1", "ablation_*"), so `repro.api.resultset.export_rows`
# can resolve any campaign loaded from JSON after `import repro.experiments`.
from . import ablation as _ablation  # noqa: F401
from . import admission_attack as _admission_attack  # noqa: F401
from . import baseline as _baseline  # noqa: F401
from . import composed as _composed  # noqa: F401
from . import effortful as _effortful  # noqa: F401
from . import faults as _faults  # noqa: F401
from . import pipe_stoppage as _pipe_stoppage  # noqa: F401
from ..api.session import ExperimentResult
from .world import World, build_world
from .reporting import format_table

__all__ = [
    "World",
    "build_world",
    "attack_sweep_campaign",
    "attack_sweep_scenario",
    "attack_sweep_rows",
    "ExperimentResult",
    "format_table",
]
