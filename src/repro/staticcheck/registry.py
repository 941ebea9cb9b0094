"""Rule registry: one class per ``RPLnnn`` code, discoverable by family.

Rules self-register at import time (the :mod:`repro.staticcheck.rules`
package imports every rule module), the same pattern as the experiment and
measurement-kind registries.  ``--select``/``--ignore`` match either an
exact code (``RPL101``) or a family prefix (``RPL1``/``RPL3xx``-style
``RPL3``), mirroring how flake8-family tools treat code prefixes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from repro.staticcheck.model import Finding, SourceModule

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "rule_for_code",
    "known_codes",
    "select_rules",
    "code_matches",
]


class Rule:
    """Base class for one lint rule.

    Attributes
    ----------
    code:
        The ``RPLnnn`` identifier (``RPL1xx`` draw-order, ``RPL3xx``
        pool/pickle contracts, ``RPL4xx`` telemetry and ambient
        discipline).
    name:
        Short kebab-case slug used in ``--list-rules``.
    invariant:
        One-line statement of the repo invariant the rule machine-checks.
    """

    code: str = ""
    name: str = ""
    invariant: str = ""

    def applies(self, module: SourceModule) -> bool:
        """Whether this rule examines ``module`` at all (default: yes)."""
        return True

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for ``module`` (the tree is already parsed)."""
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            code=self.code,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its code."""
    rule = rule_cls()
    if not rule.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_for_code(code: str) -> Optional[Rule]:
    """The rule registered under ``code``, or ``None``."""
    _ensure_loaded()
    return _REGISTRY.get(code)


def known_codes() -> List[str]:
    """All registered codes (sorted)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def code_matches(code: str, patterns: Iterable[str]) -> bool:
    """True when ``code`` equals or starts with any pattern (``RPL1``…)."""
    return any(code == pattern or code.startswith(pattern) for pattern in patterns)


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Resolve ``--select``/``--ignore`` patterns into a rule list."""
    rules = all_rules()
    if select:
        rules = [rule for rule in rules if code_matches(rule.code, select)]
    if ignore:
        rules = [rule for rule in rules if not code_matches(rule.code, ignore)]
    return rules


def _ensure_loaded() -> None:
    """Import the rule modules exactly once (they register themselves)."""
    import repro.staticcheck.rules  # noqa: F401  (import-for-side-effect)
