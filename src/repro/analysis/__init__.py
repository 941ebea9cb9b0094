"""Topological analysis of overlay networks.

These routines compute the quantities the paper reports for every generated
topology:

* degree distributions ``P(k)`` and their log-binned / CCDF forms
  (:mod:`repro.analysis.degree_distribution`, Figs. 1–4);
* power-law exponent estimates γ, by discrete maximum likelihood and by
  log–log least squares (:mod:`repro.analysis.powerlaw`, Figs. 1c and 4g);
* natural-cutoff estimators (:mod:`repro.analysis.cutoff`, Eqs. 2, 4, 5);
* shortest-path / diameter statistics (:mod:`repro.analysis.paths`, Table I);
* connected-component structure (:mod:`repro.analysis.components`);
* robustness to random failures and targeted attacks
  (:mod:`repro.analysis.robustness`, the "robust yet fragile" property cited
  in §III).
"""

from repro.analysis.components import (
    connected_components,
    giant_component,
    giant_component_fraction,
    is_connected,
)
from repro.analysis.cutoff import (
    empirical_cutoff,
    natural_cutoff_aiello,
    natural_cutoff_dorogovtsev,
    natural_cutoff_pa,
)
from repro.analysis.degree_distribution import (
    ccdf,
    degree_distribution,
    degree_histogram,
    log_binned_distribution,
)
from repro.analysis.paths import (
    average_shortest_path_length,
    diameter,
    path_length_statistics,
)
from repro.analysis.powerlaw import (
    PowerLawFit,
    fit_power_law,
    fit_power_law_mle,
    fit_power_law_regression,
)
from repro.analysis.robustness import RemovalResult, attack_robustness, failure_robustness

__all__ = [
    "PowerLawFit",
    "RemovalResult",
    "attack_robustness",
    "average_shortest_path_length",
    "ccdf",
    "connected_components",
    "degree_distribution",
    "degree_histogram",
    "diameter",
    "empirical_cutoff",
    "failure_robustness",
    "fit_power_law",
    "fit_power_law_mle",
    "fit_power_law_regression",
    "giant_component",
    "giant_component_fraction",
    "is_connected",
    "log_binned_distribution",
    "natural_cutoff_aiello",
    "natural_cutoff_dorogovtsev",
    "natural_cutoff_pa",
    "path_length_statistics",
]
