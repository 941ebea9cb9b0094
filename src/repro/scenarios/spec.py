"""Declarative, serializable scenario specifications.

The paper's contribution is a *parameter space* — construction model
(PA/CM/HAPA/DAPA) × hard cutoff × stubs × search algorithm (FL/NF/PF/RW) ×
TTL — and this module makes points and grids of that space first-class
*data*.  A :class:`ScenarioSpec` is a JSON-serializable description of an
experiment:

* :class:`TopologySpec` — which construction model to grow and with which
  parameters (stubs ``m``, hard cutoff ``kc``, prescribed exponent γ,
  locality horizon ``tau_sub``);
* :class:`MeasurementSpec` — what to measure on each realization
  (``degree-distribution``, ``search-curve``, ``messaging``,
  ``exponent-vs-cutoff``, or any kind registered through
  :func:`repro.scenarios.kinds.register_measurement_kind`), with which
  search algorithm and TTL grid;
* :class:`SweepSpec` — named parameter axes expanded as a Cartesian
  ``grid`` (last axis fastest, matching the paper's panel layout) or
  ``zip``-ped pointwise;
* :class:`PanelSpec` — one sweep plus the series measured at each of its
  points (a figure panel);
* :class:`ScenarioSpec` — the top level: id, title, topology defaults, and
  panels.

Specs round-trip ``to_dict``/``from_dict``/JSON, validate eagerly with
actionable errors, and **hash canonically**: ``spec_hash()`` is a SHA-256
over the fully-normalized form (defaults made explicit, algorithm aliases
resolved through the search registry, shorthand expanded), so every
equivalent spelling of a scenario shares one content address — and
therefore one result-store cache entry.

Scale-dependent values
----------------------
Any numeric field, TTL grid, measurement parameter, or sweep-axis value
list may be written as a *by-scale* mapping with a required ``"default"``
key, e.g. ``{"default": [10, 50, null], "smoke": [10, null]}``.  At compile
time the entry matching the active scale preset's name is selected (falling
back to ``"default"``), which is how the built-in figures trim their grids
for smoke runs without leaving the spec language.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ScenarioError
from repro.experiments.sweeps import format_cutoff, parameter_grid

__all__ = [
    "MEASUREMENT_AXIS_PREFIX",
    "TopologySpec",
    "MeasurementSpec",
    "SweepSpec",
    "PanelSpec",
    "SeriesTemplate",
    "ScenarioSpec",
    "canonical_algorithm",
    "resolve_by_scale",
    "is_by_scale",
]

#: Topology parameters a spec / sweep axis / override mapping may set.
TOPOLOGY_FIELDS = ("model", "stubs", "hard_cutoff", "exponent", "tau_sub")

#: Sweep axes may also range over *measurement* parameters (PF forward
#: probability, RW walker count, a composite kind's knobs, ...) by prefixing
#: the parameter name: ``"params.forward_probability": [0.2, 0.5, 0.8]``.
#: Each sweep point then overrides that entry of ``measurement.params`` for
#: every series in the panel, and the bare parameter name becomes a label
#: placeholder (``"pf p={forward_probability}"``).
MEASUREMENT_AXIS_PREFIX = "params."

#: Measurement kinds that accept (and require) a search algorithm.
ALGORITHMIC_KINDS = ("search-curve", "messaging")

#: Scenario ids name result-store entries and ``--out`` files, so they are
#: restricted to filesystem-safe characters (no separators, no whitespace).
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


# --------------------------------------------------------------------------- #
# By-scale values
# --------------------------------------------------------------------------- #
def is_by_scale(value: Any) -> bool:
    """True when ``value`` is a by-scale mapping (``{"default": ..., ...}``)."""
    return isinstance(value, Mapping) and "default" in value


def resolve_by_scale(value: Any, scale_name: str) -> Any:
    """Select the entry for ``scale_name`` from a by-scale mapping.

    Only mappings carrying a ``"default"`` key are by-scale; every other
    value — including plain mappings used as data (e.g. Table II's
    ``expected`` classification) — passes through unchanged.
    """
    if is_by_scale(value):
        return value["default"] if scale_name not in value else value[scale_name]
    return value


def _check_by_scale_keys(value: Any, where: str) -> None:
    if is_by_scale(value):
        for key in value:
            if not isinstance(key, str):
                raise ScenarioError(
                    f"{where}: by-scale keys must be scale-preset names "
                    f"(strings), got {key!r}"
                )


def _check_scaled_list(value: Any, where: str) -> None:
    """Validate a value that must resolve to a list (sweep axes, TTL grids)."""
    if isinstance(value, Mapping) and not is_by_scale(value):
        raise ScenarioError(
            f"{where}: mapping {dict(value)!r} needs a 'default' key to be "
            "a by-scale value ({'default': [...], '<scale-name>': [...]})"
        )
    _check_by_scale_keys(value, where)


def _canonical_value(value: Any) -> Any:
    """Normalize a (possibly by-scale) value for hashing/serialisation."""
    if isinstance(value, Mapping):
        return {str(key): _canonical_value(val) for key, val in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    return value


# --------------------------------------------------------------------------- #
# Algorithm canonicalisation (through the search registry)
# --------------------------------------------------------------------------- #
def canonical_algorithm(name: str) -> str:
    """Resolve an algorithm name/alias to its canonical short name.

    ``"flooding"`` and ``"fl"`` both map to ``"fl"``; algorithms registered
    via :func:`repro.search.registry.register_search_algorithm` resolve the
    same way, so plugins join the scenario grammar automatically.
    """
    from repro.search.registry import SEARCH_ALGORITHMS, available_search_algorithms

    key = str(name).lower()
    if key not in SEARCH_ALGORITHMS:
        raise ScenarioError(
            f"unknown search algorithm {name!r}; "
            f"available: {', '.join(available_search_algorithms())}"
        )
    return SEARCH_ALGORITHMS[key].algorithm_name


def _check_algorithm_params(algorithm: str, params: Mapping[str, Any]) -> None:
    """Eagerly reject params the algorithm cannot accept.

    Probes with the ``"default"`` resolution of by-scale values: FL/NF/PF
    (and plugins) are trial-constructed through the registry, RW params are
    checked against :func:`~repro.search.metrics.normalized_walk_curve`'s
    signature — so a typo'd or wrong-algorithm param fails at validation
    time, not mid-run inside a worker task.
    """
    import inspect

    from repro.core.errors import ReproError
    from repro.search.metrics import normalized_walk_curve
    from repro.search.registry import create_search_algorithm

    resolved = {
        name: resolve_by_scale(value, "default") for name, value in params.items()
    }
    try:
        if algorithm == "rw":
            allowed = set(inspect.signature(normalized_walk_curve).parameters)
            allowed -= {"graph", "ttl_values", "queries", "rng", "sources"}
            unknown = sorted(set(resolved) - allowed)
            if unknown:
                raise ScenarioError(
                    f"params {', '.join(map(repr, unknown))} are not accepted "
                    f"by algorithm 'rw'; accepted: {', '.join(sorted(allowed))}"
                )
        else:
            if algorithm == "nf":
                resolved.setdefault("k_min", 1)
            create_search_algorithm(algorithm, **resolved)
    except ScenarioError:
        raise
    except TypeError as error:
        raise ScenarioError(
            f"measurement.params not accepted by algorithm "
            f"{algorithm!r}: {error}"
        ) from None
    except ReproError as error:
        raise ScenarioError(
            f"measurement.params invalid for algorithm {algorithm!r}: {error}"
        ) from None


# --------------------------------------------------------------------------- #
# Topology
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TopologySpec:
    """Construction-model parameters (every value may be by-scale).

    ``model`` may be ``None`` at the scenario level when a sweep axis or a
    panel override supplies it; compilation fails loudly if no model is in
    scope for a series.
    """

    model: Optional[str] = None
    stubs: Any = 1
    hard_cutoff: Any = None
    exponent: Any = 3.0
    tau_sub: Any = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _canonical_model(self.model))

    def validate(self) -> None:
        if self.model is not None:
            _check_model_name(self.model, "topology.model")
        for name in ("stubs", "exponent", "tau_sub", "hard_cutoff"):
            _check_by_scale_keys(getattr(self, name), f"topology.{name}")

    def as_params(self) -> Dict[str, Any]:
        """Return the full ``{field: value}`` mapping (defaults included)."""
        return {name: getattr(self, name) for name in TOPOLOGY_FIELDS}

    def to_dict(self) -> Dict[str, Any]:
        return {name: _canonical_value(value) for name, value in self.as_params().items()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopologySpec":
        _check_mapping_keys(payload, TOPOLOGY_FIELDS, "topology")
        spec = cls(**{key: payload[key] for key in payload})
        spec.validate()
        return spec


def _check_model_name(model: Any, where: str) -> None:
    from repro.generators.registry import GENERATORS, available_generators

    if not isinstance(model, str) or model.lower() not in GENERATORS:
        raise ScenarioError(
            f"{where}: unknown construction model {model!r}; "
            f"available: {', '.join(available_generators())}"
        )


def _canonical_model(model: Any) -> Any:
    """Lower-case model names so ``"PA"`` and ``"pa"`` are one spelling.

    The generator registry resolves names case-insensitively, so the
    canonical (hashed, compiled) form must too — otherwise equivalent
    spellings would miss each other's cache entries.
    """
    return model.lower() if isinstance(model, str) else model


def _canonical_topology_overrides(topology: Dict[str, Any]) -> Dict[str, Any]:
    if isinstance(topology.get("model"), str):
        topology = dict(topology, model=_canonical_model(topology["model"]))
    return topology


def _check_mapping_keys(
    payload: Mapping[str, Any], allowed: Sequence[str], where: str
) -> None:
    if not isinstance(payload, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(payload).__name__}")
    unknown = [key for key in payload if key not in allowed]
    if unknown:
        raise ScenarioError(
            f"{where}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MeasurementSpec:
    """What to measure on each topology realization.

    Attributes
    ----------
    kind:
        A registered measurement kind (see :mod:`repro.scenarios.kinds`).
        The built-in grammar: ``degree-distribution``, ``search-curve``,
        ``messaging``, ``exponent-vs-cutoff``, plus the composite kinds the
        tables/ablations use.
    algorithm:
        Search algorithm for ``search-curve``/``messaging`` kinds, resolved
        through the search registry (aliases are canonicalised, so
        ``"flooding"`` and ``"fl"`` produce identical specs and hashes).
    ttl:
        Optional explicit TTL grid (list or by-scale mapping).  The default
        is the scale's flooding grid for FL and its NF/RW grid otherwise.
    params:
        Kind-specific parameters, e.g. ``{"cutoffs": [10, 20, 40]}`` for
        ``exponent-vs-cutoff`` or ``{"forward_probability": 0.5}`` for PF.
    """

    kind: str
    algorithm: Optional[str] = None
    ttl: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.algorithm is not None:
            object.__setattr__(self, "algorithm", canonical_algorithm(self.algorithm))
        object.__setattr__(self, "params", dict(self.params))

    def validate(self) -> None:
        from repro.scenarios.kinds import available_measurement_kinds

        if self.kind not in available_measurement_kinds():
            raise ScenarioError(
                f"unknown measurement kind {self.kind!r}; "
                f"available: {', '.join(available_measurement_kinds())}"
            )
        if self.kind in ALGORITHMIC_KINDS:
            if self.algorithm is None:
                raise ScenarioError(
                    f"measurement kind {self.kind!r} needs an 'algorithm' "
                    "(e.g. fl, nf, pf, rw)"
                )
            _check_algorithm_params(self.algorithm, self.params)
        else:
            # Fields a kind does not consume must be rejected, not silently
            # dropped: they would change the result's meaning in the
            # author's eyes (and the spec hash) without changing a number.
            if self.algorithm is not None:
                raise ScenarioError(
                    f"measurement kind {self.kind!r} does not take an "
                    "'algorithm'"
                )
            if self.ttl is not None:
                raise ScenarioError(
                    f"measurement kind {self.kind!r} does not take a 'ttl' grid"
                )
        if self.kind == "degree-distribution" and self.params:
            raise ScenarioError(
                "measurement kind 'degree-distribution' takes no params "
                f"(got {', '.join(map(repr, sorted(self.params)))}); for a "
                "cutoff sweep of fitted exponents use kind "
                "'exponent-vs-cutoff'"
            )
        # Kinds with a declared schema reject missing/unknown params here,
        # before any realization work starts (algorithmic kinds were probed
        # against the algorithm above; plugin kinds are unconstrained
        # unless they declare a schema at registration).
        from repro.scenarios.kinds import check_kind_params

        check_kind_params(self.kind, dict(self.params))
        if self.ttl is not None:
            _check_scaled_list(self.ttl, "measurement.ttl")
            if not isinstance(self.ttl, (list, tuple, Mapping)):
                raise ScenarioError(
                    "measurement.ttl must be a list of TTL values or a "
                    f"by-scale mapping of lists, got {self.ttl!r}"
                )
            candidate_lists = (
                self.ttl.values() if is_by_scale(self.ttl) else [self.ttl]
            )
            for candidates in candidate_lists:
                if not isinstance(candidates, (list, tuple)) or not list(candidates):
                    raise ScenarioError(
                        "measurement.ttl must resolve to a non-empty list "
                        f"of TTL values for every scale, got {candidates!r}"
                    )
                for value in candidates:
                    if not isinstance(value, int) or isinstance(value, bool):
                        raise ScenarioError(
                            f"measurement.ttl entries must be integers, "
                            f"got {value!r}"
                        )
        for key, value in self.params.items():
            _check_by_scale_keys(value, f"measurement.params[{key!r}]")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "ttl": _canonical_value(self.ttl),
            "params": {key: _canonical_value(value) for key, value in sorted(self.params.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MeasurementSpec":
        _check_mapping_keys(payload, ("kind", "algorithm", "ttl", "params"), "measurement")
        if "kind" not in payload:
            raise ScenarioError("measurement needs a 'kind' field")
        spec = cls(
            kind=str(payload["kind"]),
            algorithm=payload.get("algorithm"),
            ttl=payload.get("ttl"),
            params=dict(payload.get("params", {})),
        )
        spec.validate()
        return spec


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepSpec:
    """Named topology axes expanded into per-series parameter points.

    ``axes`` preserves authoring order; with ``expand="grid"`` the last axis
    varies fastest (outer axis = figure panel, inner axis = curve — the
    paper's layout, via :func:`repro.experiments.sweeps.parameter_grid`),
    with ``expand="zip"`` the axes are stepped together and must resolve to
    equal lengths.
    """

    axes: Tuple[Tuple[str, Any], ...]
    expand: str = "grid"

    def __post_init__(self) -> None:
        def canonical_values(name: str, values: Any) -> Any:
            if name != "model":
                return values
            if is_by_scale(values):
                return {
                    key: canonical_values(name, entry)
                    for key, entry in values.items()
                }
            if isinstance(values, (list, tuple)):
                return [_canonical_model(value) for value in values]
            return values

        object.__setattr__(
            self,
            "axes",
            tuple((str(name), canonical_values(str(name), value))
                  for name, value in self.axes),
        )

    def validate(self) -> None:
        if not self.axes:
            raise ScenarioError("sweep.axes must name at least one axis")
        if self.expand not in ("grid", "zip"):
            raise ScenarioError(
                f"sweep.expand must be 'grid' or 'zip', got {self.expand!r}"
            )
        for name, values in self.axes:
            if name.startswith(MEASUREMENT_AXIS_PREFIX):
                if not name[len(MEASUREMENT_AXIS_PREFIX):]:
                    raise ScenarioError(
                        f"sweep axis {name!r} names no measurement "
                        f"parameter after {MEASUREMENT_AXIS_PREFIX!r}"
                    )
            elif name not in TOPOLOGY_FIELDS:
                raise ScenarioError(
                    f"sweep axis {name!r} is not a topology field "
                    f"({', '.join(TOPOLOGY_FIELDS)}); to sweep a "
                    f"measurement parameter, prefix it: "
                    f"{MEASUREMENT_AXIS_PREFIX}{name}"
                )
            _check_scaled_list(values, f"sweep.axes[{name!r}]")
            if not isinstance(values, (list, tuple, Mapping)):
                raise ScenarioError(
                    f"sweep axis {name!r} needs a list of values (or a "
                    f"by-scale mapping of lists), got {values!r}"
                )
            if name == "model":
                # Model names fail loudly here, not after minutes of
                # realization work on the sweep's earlier (valid) points.
                candidate_lists = (
                    values.values() if is_by_scale(values) else [values]
                )
                for candidates in candidate_lists:
                    if isinstance(candidates, (list, tuple)):
                        for candidate in candidates:
                            _check_model_name(candidate, "sweep.axes['model']")

    def points(self, scale_name: str) -> List[Dict[str, Any]]:
        """Expand the axes for one scale preset, in deterministic order."""
        resolved: Dict[str, List[Any]] = {}
        for name, values in self.axes:
            chosen = resolve_by_scale(values, scale_name)
            if not isinstance(chosen, (list, tuple)) or not list(chosen):
                raise ScenarioError(
                    f"sweep axis {name!r} resolved to {chosen!r} for scale "
                    f"{scale_name!r}; expected a non-empty list"
                )
            resolved[name] = list(chosen)
        if self.expand == "grid":
            return parameter_grid(resolved)
        lengths = {name: len(values) for name, values in resolved.items()}
        if len(set(lengths.values())) != 1:
            raise ScenarioError(
                f"zip sweep axes must share a length, got {lengths} "
                f"for scale {scale_name!r}"
            )
        names = list(resolved)
        return [
            dict(zip(names, combo)) for combo in zip(*(resolved[name] for name in names))
        ]

    def parameter_axis_candidates(self) -> Dict[str, List[Any]]:
        """Every value each ``params.*`` axis can take, across all scales.

        Eager validation probes each of these against the measurement, so
        a bad value *anywhere* in a sweep fails at spec time — not after
        the sweep's earlier (valid) points have burned realization work.
        """
        candidates: Dict[str, List[Any]] = {}
        for name, values in self.axes:
            if not name.startswith(MEASUREMENT_AXIS_PREFIX):
                continue
            value_lists = values.values() if is_by_scale(values) else [values]
            collected: List[Any] = []
            for value_list in value_lists:
                if isinstance(value_list, (list, tuple)):
                    collected.extend(value_list)
            candidates[name[len(MEASUREMENT_AXIS_PREFIX):]] = collected
        return candidates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axes": {name: _canonical_value(values) for name, values in self.axes},
            "expand": self.expand,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        _check_mapping_keys(payload, ("axes", "expand"), "sweep")
        axes = payload.get("axes")
        if not isinstance(axes, Mapping):
            raise ScenarioError(
                "sweep needs an 'axes' mapping of {parameter: values}"
            )
        spec = cls(
            axes=tuple(axes.items()), expand=str(payload.get("expand", "grid"))
        )
        spec.validate()
        return spec


# --------------------------------------------------------------------------- #
# Panels
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SeriesTemplate:
    """One measured series per sweep point: a label template + a measurement.

    ``label`` is a ``str.format`` template over the resolved parameters:
    ``{model}``, ``{m}`` (stubs), ``{kc}`` (rendered ``"kc=10"`` /
    ``"no kc"``), ``{kc_value}``, ``{gamma}`` (exponent), ``{tau_sub}``,
    and ``{algorithm}``.
    """

    label: str
    measurement: MeasurementSpec
    topology: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "topology", _canonical_topology_overrides(dict(self.topology))
        )

    def validate(
        self,
        extra_label_fields: Optional[Mapping[str, Any]] = None,
        check_label: bool = True,
    ) -> None:
        """Validate the template.

        ``extra_label_fields`` adds sweep-supplied placeholders (the bare
        names of ``params.*`` axes) to the label check; ``check_label=False``
        defers that check to the enclosing panel, which knows the axes.
        """
        if not self.label or not isinstance(self.label, str):
            raise ScenarioError("every series needs a non-empty 'label' template")
        _check_mapping_keys(self.topology, TOPOLOGY_FIELDS, "series.topology")
        if "model" in self.topology:
            _check_model_name(self.topology["model"], "series.topology.model")
        self.measurement.validate()
        if not check_label:
            return
        extra = dict(extra_label_fields or {})
        try:
            render_label(self.label, {**_SAMPLE_LABEL_FIELDS, **extra})
            render_label(self.label, {**_SAMPLE_LABEL_FIELDS_NONE, **extra})
        except ScenarioError as error:
            raise ScenarioError(f"series label {self.label!r}: {error}") from None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "measurement": self.measurement.to_dict(),
            "topology": {
                key: _canonical_value(value) for key, value in sorted(self.topology.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SeriesTemplate":
        _check_mapping_keys(payload, ("label", "measurement", "topology"), "series")
        if "label" not in payload or "measurement" not in payload:
            raise ScenarioError("every series needs 'label' and 'measurement' fields")
        template = cls(
            label=str(payload["label"]),
            measurement=MeasurementSpec.from_dict(payload["measurement"]),
            topology=dict(payload.get("topology", {})),
        )
        # The label check needs the enclosing panel's sweep axes (``params.*``
        # axes add placeholders), so it runs in PanelSpec.validate instead.
        template.validate(check_label=False)
        return template


@dataclass(frozen=True)
class PanelSpec:
    """One figure panel: topology overrides, an optional sweep, its series."""

    series: Tuple[SeriesTemplate, ...]
    sweep: Optional[SweepSpec] = None
    topology: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", tuple(self.series))
        object.__setattr__(
            self, "topology", _canonical_topology_overrides(dict(self.topology))
        )

    def validate(self) -> None:
        if not self.series:
            raise ScenarioError("every panel needs at least one series")
        _check_mapping_keys(self.topology, TOPOLOGY_FIELDS, "panel.topology")
        if "model" in self.topology:
            _check_model_name(self.topology["model"], "panel.topology.model")
        candidates: Dict[str, List[Any]] = {}
        if self.sweep is not None:
            self.sweep.validate()
            candidates = self.sweep.parameter_axis_candidates()
        label_samples = {
            name: values[0] for name, values in candidates.items() if values
        }
        for template in self.series:
            template.validate(extra_label_fields=label_samples)
            if not candidates:
                continue
            # Every swept measurement-param value must be acceptable to
            # every series in the panel — fail here, not after minutes of
            # realization work on the sweep's earlier (valid) points.
            for name, values in candidates.items():
                for value in values:
                    merged = dict(template.measurement.params)
                    merged.update(label_samples)
                    merged[name] = value
                    if template.measurement.kind in ALGORITHMIC_KINDS:
                        _check_algorithm_params(
                            template.measurement.algorithm, merged
                        )
                    else:
                        from repro.scenarios.kinds import check_kind_params

                        check_kind_params(template.measurement.kind, merged)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": {
                key: _canonical_value(value) for key, value in sorted(self.topology.items())
            },
            "sweep": self.sweep.to_dict() if self.sweep is not None else None,
            "series": [template.to_dict() for template in self.series],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PanelSpec":
        _check_mapping_keys(
            payload,
            ("topology", "sweep", "series", "label", "measurement"),
            "panel",
        )
        if "series" in payload:
            if "label" in payload or "measurement" in payload:
                raise ScenarioError(
                    "panel: give either a 'series' list or the "
                    "'label'/'measurement' shorthand, not both"
                )
            series = tuple(
                SeriesTemplate.from_dict(item) for item in payload["series"]
            )
        elif "label" in payload and "measurement" in payload:
            series = (
                SeriesTemplate.from_dict(
                    {"label": payload["label"], "measurement": payload["measurement"]}
                ),
            )
        else:
            raise ScenarioError(
                "panel needs a 'series' list (or the 'label' + 'measurement' "
                "single-series shorthand)"
            )
        sweep = payload.get("sweep")
        panel = cls(
            series=series,
            sweep=SweepSpec.from_dict(sweep) if sweep is not None else None,
            topology=dict(payload.get("topology", {})),
        )
        panel.validate()
        return panel


# --------------------------------------------------------------------------- #
# Labels
# --------------------------------------------------------------------------- #
_SAMPLE_LABEL_FIELDS = {
    "model": "pa",
    "m": 1,
    "stubs": 1,
    "kc": "kc=10",
    "kc_value": 10,
    "gamma": 3.0,
    "exponent": 3.0,
    "tau_sub": 4,
    "algorithm": "fl",
}

#: Second validation sample: the nullable fields as ``None`` (a no-cutoff
#: sweep point, a kind without an algorithm), so format specs like
#: ``{kc_value:d}`` that only work on non-None values fail eagerly.
_SAMPLE_LABEL_FIELDS_NONE = dict(
    _SAMPLE_LABEL_FIELDS, kc="no kc", kc_value=None, algorithm=None,
)


def label_fields(topology: Mapping[str, Any], algorithm: Optional[str]) -> Dict[str, Any]:
    """Build the template fields for one resolved parameter point."""
    return {
        "model": topology.get("model"),
        "m": topology.get("stubs"),
        "stubs": topology.get("stubs"),
        "kc": format_cutoff(topology.get("hard_cutoff")),
        "kc_value": topology.get("hard_cutoff"),
        "gamma": topology.get("exponent"),
        "exponent": topology.get("exponent"),
        "tau_sub": topology.get("tau_sub"),
        "algorithm": algorithm,
    }


def render_label(template: str, fields: Mapping[str, Any]) -> str:
    """Render a label template, with actionable errors for bad placeholders."""
    try:
        return template.format(**fields)
    except KeyError as error:
        raise ScenarioError(
            f"unknown label placeholder {{{error.args[0]}}}; "
            f"available: {', '.join(sorted(fields))}"
        ) from None
    except (IndexError, ValueError, TypeError) as error:
        raise ScenarioError(f"malformed label template: {error}") from None


# --------------------------------------------------------------------------- #
# Top level
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable experiment description.

    Examples
    --------
    >>> spec = ScenarioSpec.from_dict({
    ...     "id": "pf-demo",
    ...     "title": "PF on CM",
    ...     "topology": {"model": "cm", "exponent": 2.6, "stubs": 2},
    ...     "sweep": {"axes": {"hard_cutoff": [10, None]}},
    ...     "label": "pf m={m}, {kc}",
    ...     "measurement": {"kind": "search-curve", "algorithm": "pf"},
    ... })
    >>> spec.scenario_id
    'pf-demo'
    >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
    True
    """

    scenario_id: str
    title: str
    panels: Tuple[PanelSpec, ...]
    topology: TopologySpec = field(default_factory=TopologySpec)
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "panels", tuple(self.panels))

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ScenarioSpec":
        """Validate eagerly; returns ``self`` so call sites can chain."""
        if not self.scenario_id or not isinstance(self.scenario_id, str):
            raise ScenarioError("scenario needs a non-empty string 'id'")
        if not _ID_PATTERN.fullmatch(self.scenario_id):
            raise ScenarioError(
                f"scenario id {self.scenario_id!r} must match "
                "[A-Za-z0-9][A-Za-z0-9._-]* — it names cache entries and "
                "output files, so whitespace and path separators are not "
                "allowed"
            )
        if not self.title or not isinstance(self.title, str):
            raise ScenarioError("scenario needs a non-empty string 'title'")
        if not self.panels:
            raise ScenarioError("scenario needs at least one panel")
        self.topology.validate()
        for panel in self.panels:
            panel.validate()
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Return the canonical (fully-expanded) JSON-friendly form."""
        return {
            "id": self.scenario_id,
            "title": self.title,
            "notes": self.notes,
            "topology": self.topology.to_dict(),
            "panels": [panel.to_dict() for panel in self.panels],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse a spec dict, accepting the single-panel shorthand.

        A top-level ``label``/``measurement`` (and optional ``sweep``)
        instead of a ``panels`` list describes a one-panel scenario.
        """
        _check_mapping_keys(
            payload,
            ("id", "title", "notes", "topology", "panels", "sweep", "label",
             "measurement", "series"),
            "scenario",
        )
        if "id" not in payload:
            raise ScenarioError("scenario needs an 'id' field")
        if "panels" in payload:
            for shorthand in ("sweep", "label", "measurement", "series"):
                if shorthand in payload:
                    raise ScenarioError(
                        f"scenario: give either 'panels' or the top-level "
                        f"{shorthand!r} shorthand, not both"
                    )
            panels = tuple(PanelSpec.from_dict(item) for item in payload["panels"])
        else:
            shorthand = {
                key: payload[key]
                for key in ("sweep", "label", "measurement", "series")
                if key in payload
            }
            if not shorthand:
                raise ScenarioError(
                    "scenario needs 'panels' (or the top-level single-panel "
                    "'label' + 'measurement' shorthand)"
                )
            panels = (PanelSpec.from_dict(shorthand),)
        spec = cls(
            scenario_id=str(payload["id"]),
            title=str(payload.get("title", payload["id"])),
            notes=str(payload.get("notes", "")),
            topology=TopologySpec.from_dict(payload.get("topology", {})),
            panels=panels,
        )
        return spec.validate()

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise to JSON text.

        Key order is the canonical form's own (never re-sorted): sweep-axis
        order is semantic — it fixes the series order — so a sorted dump
        would change the scenario's meaning.
        """
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from JSON text."""
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ScenarioError(f"scenario is not valid JSON: {error}") from None
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # Content addressing
    # ------------------------------------------------------------------ #
    def spec_hash(self) -> str:
        """SHA-256 of the canonical form — the scenario's content address.

        Equivalent spellings (shorthand vs. panels, algorithm aliases,
        implicit vs. explicit defaults, re-ordered params) normalise to the
        same canonical dict, so a scenario cached under one spelling is a
        cache hit for every other.  The canonical dict orders every
        non-semantic mapping itself (params and by-scale entries are
        emitted sorted); sweep-axis order is *semantic* and is deliberately
        part of the hash.
        """
        canonical = json.dumps(self.to_dict(), separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
