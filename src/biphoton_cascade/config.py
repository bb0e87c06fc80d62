"""Flat key = value experiment configuration files, one experiment per file.

Keys are dotted by section (``sweep.fixed.0 = 5.0``); '#' starts a comment
line.  ``_KEYS`` names every key once, with its reader, its default and the
key without which it has no effect.  A bad value, an unknown or repeated key
and a key with no effect (``cascade.stages`` next to ``cascade.preset``, say)
each end in one one-line ``ConfigError``.  README's Defaults table lists them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cascade import CascadeConfig, InputError
from .interferogram import SweepSpec
from .presets import make_spectrum, preset_cascade
from .quadrature import GridSpec
from .spectra import ExchangeSymmetry, JointSpectrum

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]


class ConfigError(InputError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    cascade: CascadeConfig
    spectrum: JointSpectrum
    sweep: SweepSpec | None
    backend: str
    grid: GridSpec | None
    prune_threshold: float


def _convert(convert, key: str, text: str, fault: str):
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise ValueError(f"{key}: {fault}") from None


def _number(key: str, text: str) -> float:
    value = _convert(float, key, text, f"not a number: {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"{key}: not a finite number: {text!r}")
    return value


def _integer(key: str, text: str) -> int:
    return _convert(int, key, text, f"not an integer: {text!r}")


def _threshold(key: str, text: str) -> float:
    value = _number(key, text)
    if value < 0:
        raise ValueError(f"{key}: must be >= 0, got {value!r}")
    return value


def _labels(key: str, text: str) -> list:
    return [None if token in ("-", "", "none")
            else _convert(int, key, token, f"bad label {token!r}")
            for token in map(str.strip, text.split(","))]


def _one_of(choices: dict):
    return lambda key, text: _convert(choices.__getitem__, key, text,
                                      f"{text!r} is not {'/'.join(choices)}")


_FIXED = "sweep.fixed."
_ANY_FIXED = _FIXED + "<i>"

#: Every key: (reader, default, the key without which it has no effect).  A reader
#: raises a ValueError naming the key; a default of None means the key is absent.
_KEYS = {
    "cascade.preset": (lambda key, name: preset_cascade(name), None, None),
    "cascade.stages": (_labels, None, None),
    "cascade.n_delays": (_integer, None, "cascade.stages"),
    "cascade.input_delay": (_integer, None, "cascade.stages"),
    "spectrum.sigma_plus": (_number, 1.0, None),
    "spectrum.sigma_minus": (_number, 1.0, None),
    "spectrum.symmetry": (_one_of({s.name.lower(): s for s in ExchangeSymmetry}),
                          ExchangeSymmetry.SYMMETRIC, None),
    "spectrum.pump_frequency": (_number, 20.0, None),
    "sweep.swept": (_integer, None, None),
    _ANY_FIXED: (_number, None, "sweep.swept"),
    "sweep.start": (_number, -10.0, "sweep.swept"),
    "sweep.stop": (_number, 10.0, "sweep.swept"),
    "sweep.samples": (_integer, 1001, "sweep.swept"),
    "grid.nodes": (_integer, None, None),
    "grid.extent": (_number, 8.0, "grid.nodes"),
    "backend": (_one_of({b: b for b in ("analytic", "quadrature", "both")}),
                "analytic", None),
    "prune.threshold": (_threshold, 1e-6, None),
}


def _cascade(values: dict) -> CascadeConfig:
    labels = values["cascade.stages"]
    if values["cascade.preset"] is not None:
        if labels is not None:
            raise ValueError("cascade.stages: has no effect with cascade.preset")
        return values["cascade.preset"]
    if labels is None:
        raise ValueError("missing cascade.preset or cascade.stages")
    n_delays = values["cascade.n_delays"]
    if n_delays is None:
        n_delays = max((l for l in labels if l is not None), default=-1) + 1
    return CascadeConfig.from_labels(labels, n_delays, values["cascade.input_delay"])


def _sweep(values: dict, n_delays: int) -> SweepSpec | None:
    swept = values["sweep.swept"]
    if swept is None:
        return None
    if not 0 <= swept < n_delays:
        raise ValueError(f"sweep.swept: delay {swept} out of range for {n_delays} delays")
    fixed = {int(key[len(_FIXED):]): x for key, x in values.items()
             if key.startswith(_FIXED) and key != _ANY_FIXED}
    expected = set(range(n_delays)) - {swept}
    if set(fixed) != expected:
        raise ValueError(f"sweep.fixed: indices {sorted(fixed)}, expected "
                         f"{sorted(expected)} (delay {swept} is swept)")
    return SweepSpec(fixed, swept, values["sweep.start"], values["sweep.stop"],
                     values["sweep.samples"])


def parse_config(text: str) -> ExperimentConfig:
    """Read the lines in file order, cross-check and build; any ValueError is a ConfigError."""
    given, needs = {}, {}
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, item = (part.strip() for part in line.partition("="))
            if key.startswith(_FIXED):  # one spelling per delay index
                key = _FIXED + str(_convert(int, key, key[len(_FIXED):],
                                            "not a delay index"))
            row = _KEYS.get(_ANY_FIXED if key.startswith(_FIXED) else key)
            if row is None:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in given:
                raise ValueError(f"line {lineno}: repeated key {key!r}")
            given[key] = row[0](key, item)
            needs[key] = row[2]
        for key, need in needs.items():
            if need is not None and need not in given:
                raise ValueError(f"{key}: has no effect without {need}")
        values = {key: default for key, (_, default, _) in _KEYS.items()} | given
        cascade = _cascade(values)
        spectrum = make_spectrum(values["spectrum.sigma_plus"], values["spectrum.sigma_minus"],
                                 values["spectrum.symmetry"], values["spectrum.pump_frequency"])
        sweep = _sweep(values, cascade.n_delays)
        grid = None if values["grid.nodes"] is None else GridSpec(
            values["grid.nodes"], values["grid.extent"])
        return ExperimentConfig(cascade, spectrum, sweep, values["backend"], grid,
                                values["prune.threshold"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    """Parse a config file; an unreadable file raises OSError, not ConfigError."""
    with open(path) as handle:
        return parse_config(handle.read())
