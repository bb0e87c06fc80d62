"""Symbolic beam-splitter cascade algebra.

A cascade of 50:50 beam splitters with per-stage relative delays acts on
the (signal, idler) pair as a 2x2 matrix whose entries are finite sums of
complex exponentials ``amp * exp(-i * omega * (combo . taus))``.  The
amplitudes stay exact rationals (the global ``(1/sqrt 2)^stages`` factor
is bookkept separately via ``stage_count``), and the delay combinations
are vectors of ``Fraction`` coefficients, so symbolic equality checks are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .spectra import JointSpectrum

__all__ = [
    "DelayCombo",
    "zero_combo",
    "unit_combo",
    "ExpSum",
    "CascadeConfig",
    "TransferMatrix",
    "bs_matrix",
    "compose",
    "coincidence_density",
]

#: A linear combination of delays tau_1..tau_n, as exact coefficients.
DelayCombo = tuple  # tuple[Fraction, ...]


def zero_combo(n_delays: int) -> DelayCombo:
    return (Fraction(0),) * n_delays


def unit_combo(index: int, n_delays: int) -> DelayCombo:
    if not 0 <= index < n_delays:
        raise ValueError(f"delay label {index} out of range for {n_delays} delays")
    return tuple(Fraction(1 if i == index else 0) for i in range(n_delays))


def combo_add(a: DelayCombo, b: DelayCombo) -> DelayCombo:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def combo_is_zero(a: DelayCombo) -> bool:
    return all(x == 0 for x in a)


def combo_dot(combo, taus):
    """Numeric value of the combination at concrete delays.

    Each delay may be a scalar or an array; the result broadcasts over
    them.  ``combo`` may also be a stacked ``(..., n_delays)`` float array
    of combinations (``ExpSum.arrays``); at scalar delays that gives all
    their values at once.  This is the one place a combination becomes a
    number.
    """
    if isinstance(combo, np.ndarray):
        return combo @ np.asarray(taus, dtype=float)
    return sum(float(c) * np.asarray(t)
               for c, t in zip(combo, taus, strict=True) if c)


@dataclass(frozen=True)
class ExpSum:
    """Sum of terms amp * exp(-i * omega * (combo . taus)), amp rational.

    Terms are merged on construction: equal combos are combined and zero
    amplitudes dropped, so structural equality is semantic equality.
    """

    terms: tuple  # tuple[(Fraction, DelayCombo), ...]
    n_delays: int

    @staticmethod
    def from_terms(terms, n_delays: int) -> "ExpSum":
        merged: dict = {}
        for amp, combo in terms:
            merged[combo] = merged.get(combo, Fraction(0)) + amp
        kept = tuple(
            sorted(
                ((amp, combo) for combo, amp in merged.items() if amp != 0),
                key=lambda t: t[1],
            )
        )
        return ExpSum(kept, n_delays)

    @staticmethod
    def zero(n_delays: int) -> "ExpSum":
        return ExpSum((), n_delays)

    @staticmethod
    def constant(amp, n_delays: int) -> "ExpSum":
        return ExpSum.from_terms([(Fraction(amp), zero_combo(n_delays))], n_delays)

    @staticmethod
    def phase(delay_label: int, n_delays: int, amp=1) -> "ExpSum":
        return ExpSum.from_terms(
            [(Fraction(amp), unit_combo(delay_label, n_delays))], n_delays
        )

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum.from_terms(self.terms + other.terms, self.n_delays)

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        prods = [
            (a1 * a2, combo_add(c1, c2))
            for a1, c1 in self.terms
            for a2, c2 in other.terms
        ]
        return ExpSum.from_terms(prods, self.n_delays)

    def __neg__(self) -> "ExpSum":
        return ExpSum(tuple((-a, c) for a, c in self.terms), self.n_delays)

    @cached_property
    def arrays(self):
        """Read-only float ``(amps, combos)``, shapes ``(K,)`` and
        ``(K, n_delays)``, built once per sum for numeric callers."""
        return _compile_terms(self.terms, self.n_delays)

    def evaluate(self, omega, taus) -> complex:
        """Numeric value at frequency omega (scalar or array)."""
        omega = np.asarray(omega, dtype=float)
        total = np.zeros(omega.shape, dtype=complex)
        for amp, combo in self.terms:
            total += float(amp) * np.exp(-1j * omega * combo_dot(combo, taus))
        return total


def _compile_terms(terms, n_delays: int):
    amps = np.array([float(amp) for amp, _ in terms], dtype=float)
    combos = np.array([[float(c) for c in combo] for _, combo in terms],
                      dtype=float).reshape(len(terms), n_delays)
    for array in (amps, combos):  # shared by every caller of the cached sum
        array.flags.writeable = False
    return amps, combos


@dataclass(frozen=True)
class Stage:
    """One beam splitter, optionally preceded by a labelled delay."""

    delay_label: Optional[int] = None


@dataclass(frozen=True)
class CascadeConfig:
    stages: tuple  # tuple[Stage, ...]
    n_delays: int
    input_delay: Optional[int] = None

    def __post_init__(self):
        if not self.stages:
            raise ValueError("cascade needs at least one stage")
        labels = [s.delay_label for s in self.stages if s.delay_label is not None]
        if self.input_delay is not None:
            labels.append(self.input_delay)
        for label in labels:
            if not 0 <= label < self.n_delays:
                raise ValueError(
                    f"delay label {label} out of range for {self.n_delays} delays"
                )

    @staticmethod
    def from_labels(labels: Sequence[Optional[int]], n_delays: int,
                    input_delay: Optional[int] = None) -> "CascadeConfig":
        return CascadeConfig(
            tuple(Stage(lbl) for lbl in labels), n_delays, input_delay
        )


@dataclass(frozen=True)
class TransferMatrix:
    """Symbolic cascade matrix [[A, B], [C, D]].

    Entries exclude the normalization: the physical matrix is
    ``(1/sqrt 2)^stage_count`` times this one.
    """

    A: ExpSum
    B: ExpSum
    C: ExpSum
    D: ExpSum
    stage_count: int
    n_delays: int

    def large_delay_constant(self, symmetry: int) -> float:
        """Sum of squared merged product amplitudes: the large-delay constant.

        The products A(ws) D(wi) and symmetry * B(ws) C(wi) are merged on
        their (first, second) combination pairs; once the delays are large
        every merged term averages out against every other, leaving the
        sum of the squares.  Both symmetries come from one exact pass,
        made once per matrix.
        """
        even, cross = self._moments
        return float(even + symmetry * cross)

    @cached_property
    def _moments(self):
        return _large_delay_moments(self)

    def evaluate(self, omega, taus) -> np.ndarray:
        """Numeric 2x2 matrix at a single frequency, normalization included."""
        scale = 2.0 ** (-self.stage_count / 2.0)
        return scale * np.array(
            [
                [self.A.evaluate(omega, taus), self.B.evaluate(omega, taus)],
                [self.C.evaluate(omega, taus), self.D.evaluate(omega, taus)],
            ],
            dtype=complex,
        )


def _large_delay_moments(tm: TransferMatrix):
    """Exact (sum ad^2 + sum bc^2, 2 sum ad*bc) over the merged products.

    With ``ad`` and ``bc`` the merged A*D and B*C amplitudes of one
    combination pair, the constant for either symmetry s is
    sum (ad + s*bc)^2 = even + s*cross.
    """
    routes = ({}, {})
    for prod, first, second in zip(routes, (tm.A, tm.B), (tm.D, tm.C)):
        for a_amp, a_combo in first.terms:
            for b_amp, b_combo in second.terms:
                key = (a_combo, b_combo)
                prod[key] = prod.get(key, Fraction(0)) + a_amp * b_amp
    ad, bc = routes
    even = sum(c * c for c in ad.values()) + sum(c * c for c in bc.values())
    cross = 2 * sum(c * bc[key] for key, c in ad.items() if key in bc)
    return Fraction(even), Fraction(cross)


def bs_matrix(delay_label: Optional[int], n_delays: int) -> TransferMatrix:
    """Single 50:50 beam splitter with an optional delay on the idler arm.

    [[1, e^{-i omega tau}], [1, -e^{-i omega tau}]] up to the deferred
    1/sqrt(2); with no delay this is the Hadamard-like matrix.
    """
    one = ExpSum.constant(1, n_delays)
    if delay_label is None:
        phase = ExpSum.constant(1, n_delays)
    else:
        phase = ExpSum.phase(delay_label, n_delays)
    return TransferMatrix(A=one, B=phase, C=one, D=-phase,
                          stage_count=1, n_delays=n_delays)


def _matmul(left: TransferMatrix, right: TransferMatrix) -> TransferMatrix:
    return TransferMatrix(
        A=left.A * right.A + left.B * right.C,
        B=left.A * right.B + left.B * right.D,
        C=left.C * right.A + left.D * right.C,
        D=left.C * right.B + left.D * right.D,
        stage_count=left.stage_count + right.stage_count,
        n_delays=left.n_delays,
    )


def compose(config: CascadeConfig) -> TransferMatrix:
    """Full cascade transfer matrix, stages applied right to left."""
    n = config.n_delays
    acc: Optional[TransferMatrix] = None
    if config.input_delay is not None:
        acc = TransferMatrix(
            A=ExpSum.constant(1, n),
            B=ExpSum.zero(n),
            C=ExpSum.zero(n),
            D=ExpSum.phase(config.input_delay, n),
            stage_count=0,
            n_delays=n,
        )
    for stage in config.stages:
        m = bs_matrix(stage.delay_label, n)
        acc = m if acc is None else _matmul(m, acc)
    return acc


def coincidence_density(tm: TransferMatrix, js: JointSpectrum,
                        omega_s, omega_i, taus) -> float:
    """Coincidence probability density r_n(omega_s, omega_i; taus).

    |f(ws,wi) A(ws) D(wi) + f(wi,ws) B(ws) C(wi)|^2 with the entries
    evaluated numerically; the swapped-argument amplitude follows from the
    exchange symmetry flag.  The 1/2^(2n) prefactor is left to the
    integration step.
    """
    if len(taus) != tm.n_delays:
        raise ValueError(f"expected {tm.n_delays} delays, got {len(taus)}")
    half_pump = js.pump_frequency / 2.0
    w_plus = (omega_s - half_pump) + (omega_i - half_pump)
    w_minus = (omega_s - half_pump) - (omega_i - half_pump)
    f = js.plus.amplitude(w_plus) * js.minus.amplitude(w_minus)
    f_swapped = int(js.symmetry) * f
    amp = (
        f * tm.A.evaluate(omega_s, taus) * tm.D.evaluate(omega_i, taus)
        + f_swapped * tm.B.evaluate(omega_s, taus) * tm.C.evaluate(omega_i, taus)
    )
    return np.abs(amp) ** 2
