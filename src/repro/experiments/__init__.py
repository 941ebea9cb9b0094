"""Experiment harness: reproduce every table and figure of the paper.

Each experiment module under :mod:`repro.experiments.figures` regenerates the
data behind one figure or table of the paper (the *series* that would be
plotted, not the rendered image):

========================  ================================================
Experiment id             Paper artefact
========================  ================================================
``fig1``                  Fig. 1 — PA degree distributions and γ vs cutoff
``fig2``                  Fig. 2 — CM degree distributions
``fig3``                  Fig. 3 — HAPA degree distributions
``fig4``                  Fig. 4 — DAPA degree distributions and γ vs cutoff
``table1``                Table I — diameter scaling classes
``table2``                Table II — global-information usage
``fig6``                  Fig. 6 — FL on PA and HAPA
``fig7``                  Fig. 7 — FL on CM
``fig8``                  Fig. 8 — FL on DAPA
``fig9``                  Fig. 9 — NF on PA, CM, HAPA
``fig10``                 Fig. 10 — NF on DAPA
``fig11``                 Fig. 11 — RW on PA, CM, HAPA
``fig12``                 Fig. 12 — RW on DAPA
``messaging``             §V-B-2 — messaging complexity of NF vs RW
``natural_cutoff``        Eqs. 2/4/5 — natural-cutoff scaling
``ablation_min_degree``   guideline: m ≥ 2–3 removes the cutoff penalty
``ablation_robustness``   hubs vs cutoffs under failures and attacks
========================  ================================================

Each artefact is a :class:`~repro.scenarios.ScenarioSpec` (its module's
``SCENARIO``), looked up with :func:`repro.scenarios.get_builtin_scenario`
and run with :func:`repro.scenarios.run_scenario` under an
:class:`~repro.experiments.runner.ExperimentScale`, so the same spec runs as
a fast smoke test, as the default benchmark size, or at the paper's full
network sizes.
"""

from repro.experiments.compare import ComparisonReport, compare_results
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import ExperimentScale, realization_seeds
from repro.experiments.sweeps import parameter_grid

__all__ = [
    "ComparisonReport",
    "ExperimentResult",
    "ExperimentScale",
    "Series",
    "compare_results",
    "parameter_grid",
    "realization_seeds",
]
