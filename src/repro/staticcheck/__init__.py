"""``repro.staticcheck`` — the repo's AST invariant checker (``repro lint``).

A stdlib-``ast`` linter for the invariants generic tools cannot see, each
encoding a lesson this codebase already paid for once:

* **RPL1xx draw-order** — RNG-consuming modules never iterate sets (the
  PF set-order and DAPA horizon-walk bugs), justify dict iteration, and
  draw only through :class:`repro.core.rng.RandomSource`;
* **RPL3xx pool contracts** — classes crossing the ``ParallelExecutor``
  pickle boundary hold no lambdas/locks/handles (an unpicklable member
  silently serialises a `--jobs 8` run);
* **RPL4xx ambient discipline** — spans open only as context managers,
  ``AmbientStack`` is touched only through its thread-local API.

Suppressions are per-line and *must* carry a justification::

    for key, members in cell_of.items():  # repro-lint: disable=RPL102(reason...)

Run ``repro lint src/`` (text) or ``repro lint --json`` (CI payload); see
the README's "Static analysis" section for the full rule catalogue.
"""

from repro.staticcheck.model import Finding, SourceModule
from repro.staticcheck.registry import Rule, all_rules, select_rules
from repro.staticcheck.report import (
    LINT_SCHEMA_VERSION,
    render_json,
    render_rules,
    render_text,
)
from repro.staticcheck.runner import LintReport, lint_paths
from repro.staticcheck.suppress import META_CODES

__all__ = [
    "Finding",
    "SourceModule",
    "META_CODES",
    "Rule",
    "all_rules",
    "select_rules",
    "LintReport",
    "lint_paths",
    "render_text",
    "render_json",
    "render_rules",
    "LINT_SCHEMA_VERSION",
]
