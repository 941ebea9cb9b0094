"""RPL1xx — draw-order discipline on RNG-consuming modules.

The whole correctness story of this reproduction is that every execution
path (mutable ``Graph`` vs frozen ``CSRGraph``, serial vs parallel)
consumes the exact CPython Mersenne-Twister sequence *in a defined order*.
Both of the repo's worst historical bugs were silent violations of that
invariant that no generic linter flags:

* probabilistic flooding iterated neighbors in ``set`` order, so the frozen
  CSR snapshot (edge-insertion order) produced a different draw stream than
  the mutable adjacency graph — fixed by routing all forwarding through the
  defined-order ``iter_neighbors``;
* DAPA's horizon BFS walked a ``set``-shaped frontier, whose order is
  CPython's hash-table layout rather than a defined one — fixed by
  switching the walk to ``iter_neighbors`` (deliberately versioning the
  DAPA stream).

These rules machine-check the lesson.  They apply only to the RNG-consuming
modules (``generators/``, ``search/``, ``substrate/`` and the test
``oracles/``).

``RPL101``
    No iteration over a ``set``/``frozenset`` (literal, comprehension,
    constructor call, set-returning API such as ``Graph.neighbor_set``, or
    a local consistently bound to one).  Set order is salted per process —
    iterate a defined-order sequence (``iter_neighbors``, ``sorted(...)``).
``RPL102``
    No iteration over a ``dict`` or dict view (``.keys()``/``.values()``/
    ``.items()``) without justification.  Insertion order is deterministic
    per run but *history-dependent*; a justified suppression documents why
    the insertion history itself is reproducible.
``RPL103``
    No ambient randomness: the ``random`` module and ``numpy.random`` are
    banned — every draw must flow through :class:`repro.core.rng.RandomSource`
    so streams stay seedable and spawnable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.staticcheck.model import Finding, SourceModule, in_rng_scope
from repro.staticcheck.registry import Rule, register

__all__ = ["UnorderedSetIteration", "DictIteration", "AmbientRandomness"]

#: Wrappers that realise their argument's iteration order into a sequence —
#: consuming an unordered collection through these is order-sensitive.
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: Known set-returning APIs in this codebase (``Graph.neighbor_set``) and
#: the stdlib set algebra methods.
_SET_RETURNING_METHODS = frozenset(
    {"neighbor_set", "union", "intersection", "difference", "symmetric_difference"}
)

_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _unordered_kind(
    node: ast.AST, bindings: Dict[str, str]
) -> Optional[str]:
    """Classify an expression as ``"set"``, ``"dict"``, ``"dict view"`` or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in ("set", "frozenset"):
            return "set"
        if name == "dict":
            return "dict"
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _SET_RETURNING_METHODS:
                return "set"
            if node.func.attr in _DICT_VIEW_METHODS:
                return "dict view"
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    return None


def _scope_bindings(scope: ast.AST) -> Dict[str, str]:
    """Names consistently bound to an unordered collection in this scope.

    Conservative: a name qualifies only when *every* assignment to it in
    the scope binds a set-ish/dict-ish expression; any other binding (or a
    loop/arg binding) removes it from tracking.
    """
    bindings: Dict[str, str] = {}
    poisoned: set = set()
    body = scope.body if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else []
    for node in body:
        for child in ast.walk(node):
            # Don't descend into nested function scopes.
            if child is not node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                for sub in ast.walk(child):
                    for target_name in _assigned_names(sub):
                        poisoned.add(target_name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                value = child.value
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                kind = _unordered_kind(value, {}) if value is not None else None
                for target in targets:
                    if isinstance(target, ast.Name):
                        if kind in ("set", "dict"):
                            if target.id in bindings and bindings[target.id] != kind:
                                poisoned.add(target.id)
                            bindings.setdefault(target.id, kind)
                        else:
                            poisoned.add(target.id)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                for target_name in _target_names(child.target):
                    poisoned.add(target_name)
            elif isinstance(child, ast.AugAssign):
                if isinstance(child.target, ast.Name):
                    poisoned.add(child.target.id)
    for name in poisoned:
        bindings.pop(name, None)
    return bindings


def _assigned_names(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Assign):
        names: List[str] = []
        for target in node.targets:
            names.extend(_target_names(target))
        return names
    if isinstance(node, ast.AnnAssign):
        return _target_names(node.target)
    return []


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def _iter_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _consumption_sites(
    scope: ast.AST, bindings: Dict[str, str]
) -> Iterator[Tuple[ast.AST, ast.AST, str, str]]:
    """Yield ``(anchor, expr, kind, how)`` for order-sensitive consumptions."""
    own_functions = {
        node
        for node in ast.walk(scope)
        if node is not scope and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def in_nested_function(node: ast.AST) -> bool:
        return any(
            node in set(ast.walk(fn)) for fn in own_functions
        )

    for node in ast.walk(scope):
        if node is not scope and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.For, ast.AsyncFor)):
            kind = _unordered_kind(node.iter, bindings)
            if kind and not in_nested_function(node):
                yield node, node.iter, kind, "for-loop iteration"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                kind = _unordered_kind(generator.iter, bindings)
                if kind and not in_nested_function(node):
                    yield node, generator.iter, kind, "comprehension iteration"
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _ORDER_SENSITIVE_WRAPPERS and node.args:
                kind = _unordered_kind(node.args[0], bindings)
                if kind and not in_nested_function(node):
                    yield node, node.args[0], kind, f"{name}(...) materialisation"


class _DrawOrderRule(Rule):
    """Shared scope gate for the RPL10x family."""

    def applies(self, module: SourceModule) -> bool:
        return in_rng_scope(module)


@register
class UnorderedSetIteration(_DrawOrderRule):
    code = "RPL101"
    name = "set-iteration-order"
    invariant = (
        "RNG-consuming code never iterates a set: set order is undefined, so "
        "any draw made during (or after a list built by) the iteration "
        "diverges across graph representations and processes — use "
        "iter_neighbors or sorted(...)"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for scope in _iter_scopes(module.tree):
            bindings = {
                name: kind
                for name, kind in _scope_bindings(scope).items()
                if kind == "set"
            }
            for anchor, expr, kind, how in _consumption_sites(scope, bindings):
                if kind != "set":
                    continue
                yield self.finding(
                    module, expr,
                    f"{how} over a set has no defined order on a draw path; "
                    "iterate a defined-order sequence (iter_neighbors, "
                    "sorted(...)) instead",
                )


@register
class DictIteration(_DrawOrderRule):
    code = "RPL102"
    name = "dict-iteration-order"
    invariant = (
        "RNG-consuming code iterates dicts/dict views only with a written "
        "justification: insertion order is deterministic but history-"
        "dependent, so the insertion history must itself be reproducible"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for scope in _iter_scopes(module.tree):
            bindings = {
                name: kind
                for name, kind in _scope_bindings(scope).items()
                if kind == "dict"
            }
            for anchor, expr, kind, how in _consumption_sites(scope, bindings):
                if kind not in ("dict", "dict view"):
                    continue
                yield self.finding(
                    module, expr,
                    f"{how} over a {kind} follows insertion order, which is "
                    "history-dependent on a draw path; sort it, or suppress "
                    "with a justification explaining why the insertion "
                    "history is reproducible",
                )


@register
class AmbientRandomness(_DrawOrderRule):
    code = "RPL103"
    name = "ambient-randomness"
    invariant = (
        "all draws flow through RandomSource: the random module and "
        "numpy.random are banned in RNG-consuming modules (unseedable, "
        "unspawnable)"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module, node,
                            "import of the ambient `random` module; draw "
                            "through RandomSource instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module, node,
                        "import from the ambient `random` module; draw "
                        "through RandomSource instead",
                    )
                elif node.module in ("numpy", "numpy.random") and any(
                    alias.name == "random" or node.module == "numpy.random"
                    for alias in node.names
                ):
                    yield self.finding(
                        module, node,
                        "import of numpy.random; use "
                        "RandomSource.numpy_generator() instead",
                    )
            elif isinstance(node, ast.Attribute):
                if (
                    node.attr == "random"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                ):
                    yield self.finding(
                        module, node,
                        "numpy.random access; use "
                        "RandomSource.numpy_generator() instead",
                    )
