"""Parameter-sweep helpers.

The paper's figures are grids over a handful of parameters (m × kc,
m × τ_sub, γ × kc, ...).  :func:`parameter_grid` expands a mapping of
parameter names to candidate values into the list of combinations, in a
deterministic order, so experiment code reads as "for each point of the
paper's grid" rather than as nested loops.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.errors import ExperimentError

__all__ = ["parameter_grid", "format_cutoff", "format_label"]


def parameter_grid(space: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand ``{"m": [1, 2], "kc": [10, None]}`` into the 4 combinations.

    The order is the Cartesian product with the *last* key varying fastest,
    matching how the paper's figure panels are laid out (outer parameter =
    panel, inner parameter = curve).

    Examples
    --------
    >>> parameter_grid({"m": [1, 2], "kc": [10, None]})
    [{'m': 1, 'kc': 10}, {'m': 1, 'kc': None}, {'m': 2, 'kc': 10}, {'m': 2, 'kc': None}]
    """
    if not space:
        raise ExperimentError("the parameter space must not be empty")
    keys = list(space.keys())
    value_lists = [list(space[key]) for key in keys]
    for key, values in zip(keys, value_lists):
        if not values:
            raise ExperimentError(f"parameter {key!r} has no candidate values")
    combinations: List[Dict[str, Any]] = []
    for values in itertools.product(*value_lists):
        combinations.append(dict(zip(keys, values)))
    return combinations


def format_cutoff(cutoff: "int | None") -> str:
    """Render a hard cutoff the way the paper labels it (``no kc`` for none)."""
    return "no kc" if cutoff is None else f"kc={cutoff}"


def format_label(**parts: Any) -> str:
    """Build a curve label like ``"m=2, kc=10, tau_sub=4"`` from keyword parts.

    ``None`` values are rendered in the paper's "no kc" style when the key is
    ``kc``, and skipped otherwise.

    Examples
    --------
    >>> format_label(m=2, kc=None)
    'm=2, no kc'
    >>> format_label(m=1, kc=40, tau_sub=6)
    'm=1, kc=40, tau_sub=6'
    """
    pieces: List[str] = []
    for key, value in parts.items():
        if key == "kc":
            pieces.append(format_cutoff(value))
        elif value is None:
            continue
        else:
            pieces.append(f"{key}={value}")
    return ", ".join(pieces)
