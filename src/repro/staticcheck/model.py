"""Data model shared by every lint rule: findings, parsed modules, scopes.

The linter's unit of work is a :class:`SourceModule` — one parsed Python
file plus the raw source lines the suppression scanner needs.  Rules emit
:class:`Finding` records; the runner decorates them with suppression state
(see :mod:`repro.staticcheck.suppress`) before reporting.

Scope classification lives here because several rule families share it:
the draw-order rules only apply to RNG-consuming modules, the pool-contract
rules only to modules whose classes cross the ``ParallelExecutor`` pickle
boundary.  The classification is purely path-based (package directory
names), so the test fixture corpus under ``tests/fixtures/lint/`` opts into
a scope simply by mirroring the package layout
(``fixtures/lint/search/...``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

__all__ = [
    "Finding",
    "SourceModule",
    "in_rng_scope",
    "in_pool_boundary_scope",
]

#: Directories whose modules consume the shared Mersenne-Twister draw
#: sequence through :class:`repro.core.rng.RandomSource` — the scope of the
#: RPL1xx draw-order rules.  ``oracles`` holds the test oracles
#: (``tests/oracles/``), the draw-order reference the shipped loops are
#: pinned to.
RNG_SCOPE_PARTS = frozenset({"generators", "search", "substrate", "oracles"})

#: Directories whose classes cross the ``ParallelExecutor`` process-pool
#: boundary by pickle (``Task`` arguments, ``RealizationSpec``, scenario
#: specs) — the scope of the RPL3xx pool-contract rules.
POOL_BOUNDARY_PARTS = frozenset({"engine", "scenarios"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``suppressed`` findings carry the justification string of the
    ``# repro-lint: disable=`` directive that silenced them; they still
    appear in the JSON report (auditable), but do not affect the exit code.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: Optional[str] = None

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text report."""
        return f"{self.path}:{self.line}:{self.col}"

    def suppress(self, justification: str) -> "Finding":
        """Return a suppressed copy carrying ``justification``."""
        return replace(self, suppressed=True, justification=justification)


class SourceModule:
    """One parsed source file handed to every applicable rule."""

    __slots__ = ("path", "display_path", "source", "lines", "tree")

    def __init__(self, path: Path, display_path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree

    @classmethod
    def parse(cls, path: Path, display_path: Optional[str] = None) -> "SourceModule":
        """Read and parse ``path`` (raises ``SyntaxError``/``OSError``)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path, display_path or str(path), source, tree)

    def parts(self) -> frozenset:
        """The path's directory components plus the file name."""
        return frozenset(self.path.parts)


def in_rng_scope(module: SourceModule) -> bool:
    """True for modules whose code sits on the shared RNG draw path."""
    return bool(module.parts() & RNG_SCOPE_PARTS)


def in_pool_boundary_scope(module: SourceModule) -> bool:
    """True for modules whose classes are pickled into pool workers."""
    parts = module.parts()
    if parts & POOL_BOUNDARY_PARTS:
        return True
    # ExperimentScale and friends ride inside Task args from the runner.
    return "experiments" in parts and module.path.name == "runner.py"
