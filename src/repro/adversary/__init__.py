"""Attrition adversaries.

The paper's adversary model (Section 3.1) grants the attacker pipe stoppage,
total information awareness, unconstrained identities, insider information,
masquerading, and unlimited (but polynomially bounded) computational
resources.  Attacks are built from **composable strategy components**
(Sections 4 and 6.2 frame attrition attacks as exactly this taxonomy):

* :mod:`repro.adversary.targeting` — who is attacked each cycle
  (``random_subset``, ``sticky``, ``round_robin``, ``weighted_damage``);
* :mod:`repro.adversary.schedule` — when, and how intensely
  (``constant``, ``on_off``, ``ramp``, ``piecewise``);
* :mod:`repro.adversary.vectors` — what is done to the victims
  (``pipe_stoppage``, ``admission_flood``, ``brute_force_poll``,
  ``effort_attrition``);
* :mod:`repro.adversary.adaptive` — which vectors run per cycle, chosen from
  the adversary's own observed outcomes (``all``, ``rotate``,
  ``threshold_switch``);

combined by :class:`repro.adversary.composed.ComposedAdversary`, which can
run several vectors concurrently (the paper's combined attack) or switch
vectors adaptively.  The three classic attacks are single-vector stacks, and
the registry kinds ``"pipe_stoppage"``, ``"admission_flood"``, and
``"brute_force"`` build exactly those compositions — bit-identical, digest
for digest, to the monolithic classes below.

The monolithic classes are kept as executable *reference implementations*:

* :class:`repro.adversary.pipe_stoppage.PipeStoppageAdversary` — the
  effortless network-level attack (targets the bandwidth filter; Figs 3–5).
* :class:`repro.adversary.admission_flood.AdmissionControlAdversary` — the
  effortless application-level garbage-invitation flood (targets the
  admission-control filter; Figures 6–8).
* :class:`repro.adversary.brute_force.BruteForceAdversary` — the effortful
  attack with an INTRO/REMAINING/NONE defection point (targets the
  effort-verification filters; Table 1).

The equivalence test suite replays each against its composed reformulation
and asserts identical per-run metric digests across seeds.
"""
