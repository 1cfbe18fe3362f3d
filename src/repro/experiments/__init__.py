"""Experiment harness reproducing the paper's evaluation.

A figure is a file.  Every artifact of Section 7 that ``bench`` checks is a
campaign JSON file under ``repro/experiments/artifacts/`` — the parameter
grid at bench scale, its title, and the paper's claims about its rows as
data — run by name (``repro-experiments campaign run fig2_baseline``) and
judged by :mod:`repro.experiments.bench`.  ``examples/campaigns/laptop_*.json``
hold the same figures at laptop scale.  For another scale, copy a file and
edit its ``scenario.sim``.

The modules here turn a campaign's results into the figure's rows: each
registers the named row exporters its artifacts reference.

* :mod:`repro.experiments.baseline` — Figure 2 (``"figure2"``: baseline
  access failure vs inter-poll interval and storage failure rate).
* :mod:`repro.experiments.attacks` — Figures 3–8 (``"attack_sweep"``:
  access failure, delay ratio and coefficient of friction vs attack
  duration and coverage, for pipe stoppage and the admission flood).
* :mod:`repro.experiments.effortful` — Table 1 (``"table1"``: brute-force
  effortful adversary defecting at INTRO / REMAINING / NONE).
* :mod:`repro.experiments.ablation` — ablations of individual defenses
  (``"ablation_admission"``, ``"ablation_effort"``, ``"ablation_desync"``).
* :mod:`repro.experiments.composed` — the composed-adversary families
  (``"composed_attack"``; see docs/ADVERSARIES.md).
* :mod:`repro.experiments.faults` — churn and partition families
  (``"fault_sweep"``; see docs/FAULTS.md).

:mod:`repro.experiments.world` builds a simulated world from configuration;
:mod:`repro.experiments.reporting` renders rows as text tables.  Runs
execute through :class:`repro.api.Session`.
"""

# Importing the artifact modules registers their named row exporters
# ("figure2", "table1", "attack_sweep", "ablation_*", ...), so
# `repro.api.resultset.export_rows` can resolve any campaign loaded from JSON
# after `import repro.experiments`.
from . import ablation as _ablation  # noqa: F401
from . import attacks as _attacks  # noqa: F401
from . import baseline as _baseline  # noqa: F401
from . import composed as _composed  # noqa: F401
from . import effortful as _effortful  # noqa: F401
from . import faults as _faults  # noqa: F401
from ..api.session import ExperimentResult

__all__ = ["ExperimentResult"]
