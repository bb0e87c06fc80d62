"""Symbolic beam-splitter cascade algebra.

A cascade of 50:50 beam splitters with per-stage relative delays acts on
the (signal, idler) pair as a 2x2 matrix whose entries are finite sums of
complex exponentials ``amp * exp(-i * omega * (combo . taus))``.  With
unit delays and the splitters' 1 and -1, every amplitude is an integer and
every delay combination an integer row, so an entry holds exactly those
integers and symbolic equality checks are exact and structural.  The
global ``(1/sqrt 2)^stages`` factor is bookkept separately via
``stage_count``.  ``TransferMatrix.phase_plan`` is the one float view of
the four entries, compiled once per matrix and read by every numeric caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ExpSum",
    "Stage",
    "CascadeConfig",
    "TransferMatrix",
    "InputError",
    "ZeroBaselineError",
    "compose",
]


def combo_dot(combo, taus):
    """Numeric value of the combination at concrete delays.

    Each delay may be a scalar or an array; the result broadcasts over
    them.  ``combo`` may also be a stacked ``(..., n_delays)`` float array
    of combinations (the rows of ``TransferMatrix.phase_plan`` or of
    ``AnalyticModel.arrays``); at scalar delays that gives all their values
    at once.  Either way a value is the left fold, in delay order, of
    coefficient times delay, so the stacked values have the bits of each
    combination's own (a matrix product's may differ in the last bit from
    4 delays on).  The stacked fold adds the zero coefficients' products
    at finite delays, where they change no sum: it starts at +0.0 and,
    rounding to nearest, never reaches -0.0.  At a delay that is infinite
    or NaN somewhere it skips them, as the sequence fold does, since
    0 * inf and 0 * NaN are NaN.
    This is the one place a combination becomes a number; ``swept_fold``
    is the same fold, split where its one array delay enters.
    """
    if isinstance(combo, np.ndarray):
        if len(taus) != combo.shape[-1]:
            raise ValueError(f"expected {combo.shape[-1]} delays, got {len(taus)}")
        total = np.zeros(combo.shape[:-1])
        for column, t in enumerate(taus):
            c = combo[..., column]
            if math.isfinite(t) if getattr(t, "ndim", 0) == 0 else np.isfinite(t).all():
                total += c * t
            else:
                total += np.multiply(c, t, out=np.zeros_like(total), where=c != 0)
        return total
    return sum(float(c) * np.asarray(t)
               for c, t in zip(combo, taus, strict=True) if c)


def swept_fold(row, taus, column):
    """``combo_dot``'s sequence fold of ``row`` (floats) at ``taus``, split
    where the one array delay ``taus[column]`` enters; the row's
    coefficient there is nonzero.

    Returns ``(prefix, slope, suffix)``: the fold of its scalar delays
    before ``column``, from int 0 as ``sum`` starts; its coefficient at
    ``column``; and its products at the scalar delays after it, in delay
    order, zero coefficients skipped.  ``swept_dot`` rebuilds the row's
    values from them and ``slope * taus[column]`` with the same IEEE
    operations in the same order, so with the same bits: addition
    commutes, and 0 + c t and c t + 0 both turn -0.0 into +0.0.
    """
    prefix = 0
    for c, t in zip(row[:column], taus):
        if c:
            prefix = prefix + float(c) * float(t)
    suffix = tuple(float(c) * float(t)
                   for c, t in zip(row[column + 1:], taus[column + 1:]) if c)
    return prefix, float(row[column]), suffix


def swept_dot(fold, t, last):
    """A row's values at the array delay ``t`` from its ``swept_fold``
    ``fold``: a new array.  ``last`` maps the slope of the previous call at
    ``t`` to its product with ``t``; rows taken in slope order therefore
    multiply each distinct slope once and hold one such product at a time."""
    prefix, slope, suffix = fold
    slope_t = last.get(slope)
    if slope_t is None:
        last.clear()
        slope_t = last[slope] = slope * t
    x = np.add(slope_t, prefix)
    for product in suffix:
        x += product
    return x


@dataclass(frozen=True)
class ExpSum:
    """Sum of terms amp * exp(-i * omega * (row . taus)), amp and row integral.

    Rows are distinct and sorted and amplitudes nonzero, so structural
    equality is semantic equality.
    """

    amps: tuple  # tuple[int, ...]
    rows: tuple  # tuple[tuple[int, ...], ...]
    n_delays: int

    @staticmethod
    def from_rows(merged: dict, n_delays: int) -> "ExpSum":
        """The sum of ``{row: amp}`` integer terms; zero amplitudes drop."""
        kept = sorted((row, amp) for row, amp in merged.items() if amp)
        return ExpSum(tuple(amp for _, amp in kept), tuple(row for row, _ in kept),
                      n_delays)

    @property
    def terms(self):
        """``(amp, row)`` integer pairs, in row order."""
        return tuple(zip(self.amps, self.rows))


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
        if self.n_delays < 0:
            raise ValueError(f"n_delays must be >= 0, got {self.n_delays}")
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


class InputError(ValueError):
    """An input the package refuses; every refusal it raises derives from it."""


class ZeroBaselineError(InputError):
    """The cascade has no coincidences at large delays: nothing to normalize by."""


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
        sum of the squares.  Both symmetries come from one exact
        computation, made once per matrix.
        """
        even, cross = self._moments
        return float(even + symmetry * cross)

    @cached_property
    def _moments(self):
        return _large_delay_moments(self)

    @cached_property
    def phase_plan(self):
        """Read-only ``(amps, rows, index)``, the matrix's one float view,
        built once per matrix: A, B, C and D's amplitudes zero-padded to the
        widest, K terms, shape ``(4, K)``; the distinct float delay rows
        among those 4 K (entry, term) slots, ``(D, n_delays)``, a padded
        slot's row being zero; and in ``index`` ``(4, K)`` each slot's row."""
        return _compile_phase_plan(self)

    def evaluate(self, omega, taus) -> np.ndarray:
        """Numeric 2x2 matrix at a single frequency, normalization included,
        one scalar per delay.  Each entry sums its own terms, in row order:
        its slots of the phase plan, never the zero padding."""
        amps, rows, index = self.phase_plan
        u = combo_dot(rows, taus)
        entries = []
        for slot, entry in enumerate((self.A, self.B, self.C, self.D)):
            width = len(entry.amps)
            phases = np.multiply.outer(np.asarray(omega, dtype=float), u[index[slot, :width]])
            entries.append(np.tensordot(np.exp(-1j * phases), amps[slot, :width], axes=1))
        scale = 2.0 ** (-self.stage_count / 2.0)
        return scale * np.array(entries, dtype=complex).reshape(2, 2)


def _compile_phase_plan(tm: TransferMatrix):
    entries = (tm.A, tm.B, tm.C, tm.D)
    width = max(len(entry.amps) for entry in entries)
    amps = np.zeros((4, width))
    for slot, entry in enumerate(entries):
        amps[slot, :len(entry.amps)] = np.array(entry.amps, dtype=float)
    # Integer rows keyed as tuples in order of first use, a padded slot's
    # being the zero row: np.unique(axis=0) cannot reshape the empty rows of
    # a matrix without delays.
    zero = (0,) * tm.n_delays
    at: dict = {}
    index = np.array([[at.setdefault(row, len(at))
                       for row in entry.rows + (zero,) * (width - len(entry.rows))]
                      for entry in entries], dtype=np.intp).reshape(4, width)
    rows = np.array(list(at), dtype=float).reshape(len(at), tm.n_delays)
    for array in (amps, rows, index):  # shared by every call on the matrix
        array.flags.writeable = False
    return amps, rows, index


def _large_delay_moments(tm: TransferMatrix):
    """Exact (sum ad^2 + sum bc^2, 2 sum ad*bc) over the merged products.

    With ``ad`` and ``bc`` the merged A*D and B*C amplitudes of one
    combination pair, the constant for either symmetry s is
    sum (ad + s*bc)^2 = even + s*cross.  An entry's rows are distinct, so
    each of those is one amplitude product and the sums separate:
    even = |A|^2 |D|^2 + |B|^2 |C|^2 and cross = 2 <A,B> <D,C>.
    """
    a, b, c, d = (dict(zip(e.rows, e.amps)) for e in (tm.A, tm.B, tm.C, tm.D))

    def inner(x: dict, y: dict) -> int:
        return sum(amp * y.get(row, 0) for row, amp in x.items())

    return (inner(a, a) * inner(d, d) + inner(b, b) * inner(c, c),
            2 * inner(a, b) * inner(d, c))


def _shift(entry: dict, column: int) -> dict:
    """The entry times one delay's phase: 1 added to that column of every row."""
    return {row[:column] + (row[column] + 1,) + row[column + 1:]: amp
            for row, amp in entry.items()}


def _combine(first: dict, second: dict, sign: int) -> dict:
    """first + sign * second on integer rows; zero amplitudes drop."""
    out = dict(first)
    for row, amp in second.items():
        out[row] = out.get(row, 0) + sign * amp
    return {row: amp for row, amp in out.items() if amp}


def compose(config: CascadeConfig) -> TransferMatrix:
    """Full cascade transfer matrix, stages applied right to left.

    Each splitter [[1, phi], [1, -phi]] left-multiplies the accumulated
    matrix as a shift-and-add: A' = A + phi C, B' = B + phi D,
    C' = A - phi C and D' = B - phi D, where phi shifts every row by the
    stage's unit delay (and is 1 for a delay-free splitter).  The entries
    stay ``{row: amp}`` dicts of integers until the end.
    """
    origin = (0,) * config.n_delays
    a, b, c, d = {origin: 1}, {}, {}, {origin: 1}
    if config.input_delay is not None:
        d = _shift(d, config.input_delay)
    for stage in config.stages:
        if stage.delay_label is not None:
            c, d = _shift(c, stage.delay_label), _shift(d, stage.delay_label)
        a, b, c, d = (_combine(a, c, 1), _combine(b, d, 1),
                      _combine(a, c, -1), _combine(b, d, -1))
    return TransferMatrix(
        *(ExpSum.from_rows(entry, config.n_delays) for entry in (a, b, c, d)),
        stage_count=len(config.stages), n_delays=config.n_delays)

