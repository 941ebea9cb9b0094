"""One module per paper figure / table.

Every module defines one thing: ``SCENARIO``, the artefact as a
:class:`~repro.scenarios.ScenarioSpec` (its id, title, and the paper's
parameter grids).  :func:`repro.scenarios.builtin_scenarios` reads them
from :data:`ALL_FIGURE_MODULES`, in paper order, and every entry point —
``repro figure``/``run``/``suite``, :func:`repro.engine.run_suite`, and
``repro serve`` — runs them through
:func:`repro.scenarios.run_scenario_cached` like any user scenario; all
heavy lifting lives in the library proper.
"""

from repro.experiments.figures import (  # noqa: F401  (re-exported for discovery)
    ablation_min_degree,
    ablation_robustness,
    fig1_pa_degree,
    fig2_cm_degree,
    fig3_hapa_degree,
    fig4_dapa_degree,
    fig6_fl_pa_hapa,
    fig7_fl_cm,
    fig8_fl_dapa,
    fig9_nf_global,
    fig10_nf_dapa,
    fig11_rw_global,
    fig12_rw_dapa,
    messaging,
    natural_cutoff,
    table1_diameter,
    table2_locality,
)

ALL_FIGURE_MODULES = [
    fig1_pa_degree,
    fig2_cm_degree,
    fig3_hapa_degree,
    fig4_dapa_degree,
    table1_diameter,
    table2_locality,
    fig6_fl_pa_hapa,
    fig7_fl_cm,
    fig8_fl_dapa,
    fig9_nf_global,
    fig10_nf_dapa,
    fig11_rw_global,
    fig12_rw_dapa,
    messaging,
    natural_cutoff,
    ablation_min_degree,
    ablation_robustness,
]

__all__ = ["ALL_FIGURE_MODULES"]
