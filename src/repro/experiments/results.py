"""Result containers for the experiment harness.

Every experiment produces an :class:`ExperimentResult`: a set of named
:class:`Series` (x/y arrays plus metadata — one series per curve the paper
plots), the parameters used, and free-form notes describing how the output
should be compared with the paper (which trend to look at, not which absolute
numbers).  Results serialise to JSON (for storage / regression comparison)
and render to aligned text tables (for the CLI and the benchmark logs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.core.errors import ExperimentError

__all__ = ["Series", "ExperimentResult"]

Number = Union[int, float]


@dataclass
class Series:
    """One labelled curve: x values, y values, and provenance metadata.

    Attributes
    ----------
    label:
        Legend label, mirroring the paper's curve labels
        (e.g. ``"m=2, kc=10"`` or ``"tau_sub=6"``).
    x:
        Independent variable (degree ``k``, TTL ``τ``, cutoff ``kc``, ...).
    y:
        Dependent variable (``P(k)``, number of hits, exponent γ, ...).
    metadata:
        Free-form provenance (model, parameters, realization count, ...).
    """

    label: str
    x: List[Number]
    y: List[Number]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ExperimentError(
                f"series {self.label!r}: x and y must have the same length "
                f"({len(self.x)} vs {len(self.y)})"
            )

    def __len__(self) -> int:
        return len(self.x)

    def y_at(self, x_value: Number) -> Number:
        """Return the y value at the exact x value (raises if absent)."""
        try:
            return self.y[self.x.index(x_value)]
        except ValueError:
            raise ExperimentError(
                f"series {self.label!r} has no point at x={x_value}"
            ) from None

    def final(self) -> Number:
        """Return the last y value (the largest-x end of the curve)."""
        if not self.y:
            raise ExperimentError(f"series {self.label!r} is empty")
        return self.y[-1]

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation."""
        return {
            "label": self.label,
            "x": list(self.x),
            "y": list(self.y),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Series":
        """Rebuild a series from :meth:`as_dict` output."""
        return cls(
            label=str(payload["label"]),
            x=list(payload["x"]),
            y=list(payload["y"]),
            metadata=dict(payload.get("metadata", {})),
        )


@dataclass
class ExperimentResult:
    """The complete output of one experiment (one figure or table).

    Attributes
    ----------
    experiment_id:
        Short id ("fig1", "table1", "ablation_min_degree", ...).
    title:
        Human-readable description.
    series:
        The curves / rows reproduced.
    parameters:
        Scale and model parameters the experiment ran with.
    notes:
        How to compare this output with the paper (expected trends).
    """

    experiment_id: str
    title: str
    series: List[Series] = field(default_factory=list)
    parameters: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def add(self, series: Series) -> None:
        """Append a series to the result."""
        self.series.append(series)

    def labels(self) -> List[str]:
        """Return the labels of all series, in insertion order."""
        return [series.label for series in self.series]

    def get(self, label: str) -> Series:
        """Return the series with the given label."""
        for series in self.series:
            if series.label == label:
                return series
        raise ExperimentError(
            f"experiment {self.experiment_id!r} has no series labelled {label!r}; "
            f"available: {', '.join(self.labels())}"
        )

    def __contains__(self, label: object) -> bool:
        return any(series.label == label for series in self.series)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "series": [series.as_dict() for series in self.series],
            "parameters": dict(self.parameters),
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`as_dict` output."""
        return cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload.get("title", "")),
            series=[Series.from_dict(item) for item in payload.get("series", [])],
            parameters=dict(payload.get("parameters", {})),
            notes=str(payload.get("notes", "")),
        )

    def save_json(self, path: "str | Path") -> Path:
        """Write the result to ``path`` as JSON and return the path."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True))
        return destination

    @classmethod
    def load_json(cls, path: "str | Path") -> "ExperimentResult":
        """Load a result previously written by :meth:`save_json`."""
        payload = json.loads(Path(path).read_text())
        return cls.from_dict(payload)

    def save_csv(self, path: "str | Path") -> Path:
        """Write the result as a long-format CSV (label, x, y)."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        lines = ["label,x,y"]
        for series in self.series:
            for x_value, y_value in zip(series.x, series.y):
                lines.append(f"{series.label},{x_value},{y_value}")
        destination.write_text("\n".join(lines) + "\n")
        return destination

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_table(self, max_points: int = 12, float_format: str = "{:.4g}") -> str:
        """Render the result as an aligned text table (one row per series).

        Long series are subsampled to ``max_points`` columns so the output
        stays readable in a terminal or a benchmark log.
        """
        lines = [f"{self.experiment_id}: {self.title}"]
        for series in self.series:
            points = list(zip(series.x, series.y))
            if len(points) > max_points:
                step = max(1, len(points) // max_points)
                sampled = points[::step]
                if sampled[-1] != points[-1]:
                    sampled.append(points[-1])
                points = sampled
            rendered = ", ".join(
                f"({float_format.format(float(x))}, {float_format.format(float(y))})"
                for x, y in points
            )
            lines.append(f"  {series.label:<28s} {rendered}")
        if self.notes:
            lines.append(f"  notes: {self.notes}")
        return "\n".join(lines)
