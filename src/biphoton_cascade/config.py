"""Flat key = value experiment configuration files.

One experiment per file; sections are dotted prefixes, e.g.::

    cascade.preset = two_param_2002
    spectrum.sigma_plus = 1.0
    spectrum.sigma_minus = 10.0
    spectrum.symmetry = symmetric
    sweep.swept = 1
    sweep.fixed.0 = 5.0
    sweep.start = -20
    sweep.stop = 20
    sweep.samples = 4096
    backend = analytic

Lines starting with '#' are comments.  Custom topologies replace
``cascade.preset`` with ``cascade.stages`` (comma-separated delay labels,
'-' for a delay-free splitter) and ``cascade.n_delays``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .cascade import CascadeConfig
from .interferogram import SweepSpec
from .presets import make_spectrum, preset_cascade
from .quadrature import GridSpec, Rule
from .spectra import ExchangeSymmetry, JointSpectrum

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    cascade: CascadeConfig
    spectrum: JointSpectrum
    sweep: Optional[SweepSpec]
    backend: str = "analytic"
    grid: Optional[GridSpec] = None
    prune_threshold: Optional[float] = None


def _parse_lines(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _finite(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {text!r}")
    return value


def _get_float(values: dict, key: str, default=None) -> Optional[float]:
    if key not in values:
        return default
    return _finite(key, values[key])


def _get_int(values: dict, key: str, default=None) -> Optional[int]:
    if key not in values:
        return default
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {values[key]!r}") from None


def _parse_cascade(values: dict) -> CascadeConfig:
    preset = values.get("cascade.preset")
    if preset is not None:
        try:
            return preset_cascade(preset)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    stages = values.get("cascade.stages")
    if stages is None:
        raise ConfigError("missing cascade.preset or cascade.stages")
    labels = []
    for token in stages.split(","):
        token = token.strip()
        if token in ("-", "", "none"):
            labels.append(None)
        else:
            try:
                labels.append(int(token))
            except ValueError:
                raise ConfigError(f"cascade.stages: bad label {token!r}") from None
    n_delays = _get_int(values, "cascade.n_delays")
    if n_delays is None:
        n_delays = max((l for l in labels if l is not None), default=-1) + 1
    input_delay = _get_int(values, "cascade.input_delay")
    try:
        return CascadeConfig.from_labels(labels, n_delays, input_delay)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_spectrum(values: dict) -> JointSpectrum:
    symmetry_name = values.get("spectrum.symmetry", "symmetric")
    try:
        symmetry = {
            "symmetric": ExchangeSymmetry.SYMMETRIC,
            "antisymmetric": ExchangeSymmetry.ANTISYMMETRIC,
        }[symmetry_name]
    except KeyError:
        raise ConfigError(
            f"spectrum.symmetry: {symmetry_name!r} is not "
            "symmetric/antisymmetric"
        ) from None
    try:
        return make_spectrum(
            sigma_plus=_get_float(values, "spectrum.sigma_plus", 1.0),
            sigma_minus=_get_float(values, "spectrum.sigma_minus", 1.0),
            symmetry=symmetry,
            pump_frequency=_get_float(values, "spectrum.pump_frequency", 20.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_sweep(values: dict, n_delays: int) -> Optional[SweepSpec]:
    if "sweep.swept" not in values:
        return None
    swept = _get_int(values, "sweep.swept")
    if not 0 <= swept < n_delays:
        raise ConfigError(
            f"sweep.swept: delay {swept} out of range for {n_delays} delays"
        )
    fixed = {}
    for key, value in values.items():
        if key.startswith("sweep.fixed."):
            try:
                index = int(key.rsplit(".", 1)[1])
            except ValueError:
                raise ConfigError(f"{key}: not a delay index") from None
            fixed[index] = _finite(key, value)
    expected = set(range(n_delays)) - {swept}
    if set(fixed) != expected:
        raise ConfigError(
            f"sweep.fixed: indices {sorted(fixed)}, expected {sorted(expected)} "
            f"(delay {swept} is swept)"
        )
    try:
        return SweepSpec(
            fixed=fixed,
            swept=swept,
            start=_get_float(values, "sweep.start", -10.0),
            stop=_get_float(values, "sweep.stop", 10.0),
            samples=_get_int(values, "sweep.samples", 1001),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_grid(values: dict) -> Optional[GridSpec]:
    if "grid.nodes" not in values:
        return None
    rule_name = values.get("grid.rule", "trapezoid")
    try:
        rule = Rule(rule_name)
    except ValueError:
        raise ConfigError(f"grid.rule: unknown rule {rule_name!r}") from None
    try:
        return GridSpec(
            nodes_per_axis=_get_int(values, "grid.nodes"),
            extent_sigmas=_get_float(values, "grid.extent", 8.0),
            rule=rule,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> ExperimentConfig:
    values = _parse_lines(text)
    cascade = _parse_cascade(values)
    spectrum = _parse_spectrum(values)
    sweep = _parse_sweep(values, cascade.n_delays)
    backend = values.get("backend", "analytic")
    if backend not in ("analytic", "quadrature", "both"):
        raise ConfigError(f"backend: {backend!r} is not analytic/quadrature/both")
    prune_threshold = _get_float(values, "prune.threshold")
    if prune_threshold is not None and prune_threshold < 0:
        raise ConfigError(f"prune.threshold: must be >= 0, got {prune_threshold!r}")
    return ExperimentConfig(
        cascade=cascade,
        spectrum=spectrum,
        sweep=sweep,
        backend=backend,
        grid=_parse_grid(values),
        prune_threshold=prune_threshold,
    )


def load_config(path) -> ExperimentConfig:
    """Parse a config file; OSError propagates so callers can distinguish
    unreadable files from malformed contents."""
    with open(path) as handle:
        text = handle.read()
    return parse_config(text)
