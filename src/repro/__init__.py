"""repro — a reproduction of "Attrition Defenses for a Peer-to-Peer Digital
Preservation System" (Giuli, Maniatis, Baker, Rosenthal, Roussopoulos).

The package implements the LOCKSS opinion-poll audit-and-repair protocol with
the paper's attrition defenses (admission control, desynchronization,
redundancy), a discrete-event simulation substrate standing in for the Narses
simulator, the paper's three adversary classes, and the experiment harness
that regenerates Figures 2–8 and Table 1.

Experiments are described declaratively with the Scenario API; parameter
grids over a scenario are Campaigns, executed resumably through a Session
(serially, or on a process pool with bit-identical results).  Quickstart::

    from repro import AdversarySpec, Campaign, CampaignRunner, Scenario

    base = Scenario(name="stoppage", base="scaled",
                    adversary=AdversarySpec("pipe_stoppage", {}), seeds=(1, 2, 3))
    campaign = Campaign.from_grid("stoppage-grid", base,
                                  {"adversary.coverage": [0.4, 1.0],
                                   "adversary.attack_duration_days": [30.0, 90.0]})
    print(CampaignRunner(workers=3).run(campaign)
          .rows("coverage", "attack_duration_days", "assessment.delay_ratio"))

Scenarios and campaigns serialize to JSON (``campaign.save("sweep.json")``)
and run from the command line with ``repro-experiments run`` /
``repro-experiments campaign run`` (checkpointed and resumable with
``--store``).  Adversaries are looked up in a string-keyed registry
(``pipe_stoppage``, ``admission_flood``, ``brute_force``); register your own
with the ``repro.api.adversary`` decorator.

See ``examples/`` for attack scenarios and ``benchmarks/`` for the
figure/table regeneration harnesses.
"""

from .api import (
    AdversaryRegistry,
    AdversarySpec,
    Campaign,
    CampaignRunner,
    ResultSet,
    ResultStore,
    Scenario,
    Session,
    adversary,
    config_digest,
)
from .api.session import ExperimentResult
from .config import (
    ProtocolConfig,
    SimulationConfig,
    paper_config,
    scaled_config,
    smoke_config,
)
from .experiments.world import World, build_world
from .metrics.report import AttackAssessment, RunMetrics, compare_runs
from .adversary import (
    AdmissionControlAdversary,
    AttackSchedule,
    BruteForceAdversary,
    DefectionPoint,
    PipeStoppageAdversary,
)
from .core.peer import Peer
from . import units

__version__ = "1.1.0"

__all__ = [
    "ProtocolConfig",
    "SimulationConfig",
    "paper_config",
    "scaled_config",
    "smoke_config",
    "Scenario",
    "AdversarySpec",
    "Campaign",
    "CampaignRunner",
    "ResultSet",
    "Session",
    "ResultStore",
    "AdversaryRegistry",
    "adversary",
    "config_digest",
    "World",
    "build_world",
    "ExperimentResult",
    "RunMetrics",
    "AttackAssessment",
    "compare_runs",
    "Peer",
    "PipeStoppageAdversary",
    "AdmissionControlAdversary",
    "BruteForceAdversary",
    "DefectionPoint",
    "AttackSchedule",
    "units",
    "__version__",
]
