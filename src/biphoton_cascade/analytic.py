"""Closed-form coincidence models derived from a cascade transfer matrix.

``expand`` squares the two-amplitude coincidence density symbolically, from
signal- and idler-side correlations of the matrix entries, and integrates it
term by term against the factorable joint spectrum.  Each surviving term is
a product of the two correlation functions at half-integer delay combinations:

    R_N(taus) = sum_k  coeff_k * g_plus(p_k . taus) * g_minus(m_k . taus)

with the constant term normalized to 1 (the large-delay baseline).  This
mechanically reproduces every closed form quoted for the one-, two- and
three-delay cascades, including the 28-term three-delay expansion.

A model holds its terms as integers: coefficient numerators over one
least denominator, and (p_k, m_k) argument rows over one least argument
scale.  Rendering, the swap rule and ``==`` read those integers; pruning
and evaluation read ``AnalyticModel.arrays``, the one float view, compiled
once per model.
One walk over the terms, ``_walk``, folds them into values (``evaluate``),
into carrier-free envelopes, or into both (``interferogram.analytic_sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .cascade import InputError, TransferMatrix, ZeroBaselineError, combo_dot
from .spectra import _HERMITE_CAP, _MASKED_LANES, ExchangeSymmetry, JointSpectrum

__all__ = [
    "AnalyticModel",
    "ZeroBaselineError",
    "ExpansionTooLargeError",
    "check_delay_count",
    "expand",
    "evaluate",
    "swap_rule",
    "antisymmetric_equivalence_check",
    "asymptotic_prune",
    "render_text",
    "render_latex",
]


@dataclass(frozen=True)
class AnalyticModel:
    """Normalized coincidence probability as a canonical term list.

    Term k has coefficient ``coeffs[k] / coeff_scale`` and arguments
    ``plus[k] / arg_scale`` and ``minus[k] / arg_scale``: integer
    numerators and integer rows, each set over one denominator kept in
    lowest terms, so ``==`` is semantic equality: the same delay count,
    symmetry and term list.  ``expand`` normalizes the model to its
    large-delay baseline, so the constant term is 1, and sorts the terms by
    their (plus, minus) rows, which puts the constant first.  (The baseline
    before normalization is ``tm.large_delay_constant(symmetry) /
    4**tm.stage_count``.)  ``arrays`` is the float view that pruning and
    evaluation read, built on demand.
    """

    coeffs: tuple  # tuple[int, ...]
    plus: tuple  # tuple[tuple[int, ...], ...]
    minus: tuple  # tuple[tuple[int, ...], ...]
    n_delays: int
    symmetry: ExchangeSymmetry
    coeff_scale: int = 1
    arg_scale: int = 1

    @staticmethod
    def from_rows(coeffs, plus, minus, n_delays: int, symmetry: ExchangeSymmetry,
                  coeff_scale: int = 1, arg_scale: int = 1) -> "AnalyticModel":
        """The model of integer terms in the order given, over the least scales.

        Numerators and rows are sequences or arrays, int64 or ``object``.
        """
        coeffs, rows = _int_array(coeffs), _int_array((plus, minus))
        # Reducing by the common divisor leaves each scale the least one.
        coeff_gcd = math.gcd(coeff_scale, int(np.gcd.reduce(coeffs)))
        arg_gcd = math.gcd(arg_scale, int(np.gcd.reduce(rows, axis=None)))
        rows //= arg_gcd  # a new (2, K, n_delays) array, never the caller's
        plus, minus = (tuple(map(tuple, side)) for side in
                       rows.reshape(2, len(coeffs), n_delays).tolist())
        return AnalyticModel(tuple((coeffs // coeff_gcd).tolist()), plus, minus,
                             n_delays, symmetry, coeff_scale // coeff_gcd,
                             arg_scale // arg_gcd)

    @cached_property
    def terms(self):
        """The exact terms as ``Fraction``s, in model order: one
        ``(coeff, plus, minus)`` triple per term, each argument a tuple of
        one ``Fraction`` per delay.  Built on first use; nothing in the
        package reads it."""
        coeff = {c: Fraction(c, self.coeff_scale) for c in set(self.coeffs)}
        rows = set(self.plus).union(self.minus)
        arg = {v: Fraction(v, self.arg_scale) for v in set().union(*rows)}
        rows = {row: tuple(map(arg.__getitem__, row)) for row in rows}
        return tuple((coeff[c], rows[p], rows[m])
                     for c, p, m in zip(self.coeffs, self.plus, self.minus))

    @cached_property
    def arrays(self):
        """Read-only float ``(coeffs, plus, minus, index)``, built once per model:
        the ``(K,)`` coefficients, each side's distinct nonzero arguments in
        order of first use and then one zero row, and in ``index`` ``(K, 2)``
        each term's plus and minus row, -1 (the zero row) for a zero argument."""
        return _compile_model(self)

    @cached_property
    def _plan(self):
        """Each term's ``(coeff, plus, minus)`` for ``_walk``, built once per
        model: the float coefficient and the term's rows of ``arrays``, which
        index the lists ``_blocks`` yields, None for a zero argument."""
        coeffs, _, _, index = self.arrays
        return tuple((c, None if p < 0 else p, None if m < 0 else m)
                     for c, (p, m) in zip(coeffs.tolist(), index.tolist()))

    @property
    def constant(self) -> Fraction:
        for c, p, m in zip(self.coeffs, self.plus, self.minus):
            if not (any(p) or any(m)):
                return Fraction(c, self.coeff_scale)
        return Fraction(0)


def _int_array(values):
    """Integers as an int64 array, or as an ``object`` array past int64."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _compile_model(model: AnalyticModel):
    # The zero row is keyed first, as -1, and stored last.  int / int is
    # correctly rounded: the floats of the reduced fractions, converted
    # once per distinct argument.
    n, zero = model.n_delays, (0,) * model.n_delays
    sides, index = [], []
    for rows in (model.plus, model.minus):
        at = {zero: -1}
        index.append([at.setdefault(row, len(at) - 1) for row in rows])
        at = list(at)
        sides.append(np.array([v / model.arg_scale for row in at[1:] + at[:1] for v in row])
                     .reshape(len(at), n))
    coeffs = np.array([c / model.coeff_scale for c in model.coeffs], dtype=float)
    index = np.array(index, dtype=np.intp).T
    for array in (coeffs, *sides, index):  # shared by every caller of the model
        array.flags.writeable = False
    return coeffs, *sides, index


class ExpansionTooLargeError(InputError):
    """A cascade whose expansion would build more integer rows than the budget."""


_INT64_MAX = int(np.iinfo(np.int64).max)
#: Bytes ``expand`` is charged per int64 column of each correlation pair and
#: each (dx, dy) cell it builds; a 7-delay chain traced at about 27.
_BYTES_PER_COLUMN = 32
#: Memory budget of one ``expand`` (2 GiB): an 8-delay chain, one delay per
#: splitter, is charged 1.2 GiB, a 9-delay one 9.9 GiB, refused before any
#: row is built.
EXPAND_MEMORY_BUDGET = 2 << 30


def _check_budget(n_delays: int, rows: int, columns: int) -> None:
    """Refuse to build ``rows`` integer rows of ``columns`` columns past the budget."""
    need = rows * columns * _BYTES_PER_COLUMN
    if need > EXPAND_MEMORY_BUDGET:
        raise ExpansionTooLargeError(
            f"expanding {n_delays} delays would need {need / 2**30:.3g} GiB of "
            f"integer rows; the budget is {EXPAND_MEMORY_BUDGET / 2**30:.3g} GiB")


def check_delay_count(n_delays: int) -> None:
    """Refuse, before ``compose``, a delay count that no expansion fits.

    However few its terms, ``expand`` builds at least one cell of
    2 n_delays int64 columns, charged as it charges every cell; a count
    past the budget at that one cell is refused before the cascade's rows
    of n_delays entries are composed.
    """
    _check_budget(n_delays, 1, 2 * n_delays)


class _Lattice:
    """Mixed-radix packing of integer rows whose columns lie in lo..hi.

    Each row packs into one key of non-negative digits, its first column
    most significant, so keys sort in the rows' lexicographic order.  Keys
    are int64 while the lattice size fits, Python integers past that; a
    cascade with each delay on one splitter fits int64 up to 13 delays.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.radix = np.asarray(hi, dtype=np.int64) - self.lo + 1
        place, size = [], 1
        for base in reversed(self.radix.tolist()):  # one running product
            place.append(size)
            size *= base
        self.dtype = np.int64 if size - 1 <= _INT64_MAX else object
        self.place = np.array(place[::-1], dtype=self.dtype)

    def pack(self, rows):
        digits = (rows - self.lo).astype(self.dtype, copy=False)
        digits *= self.place  # in place: one (rows, columns) array at a time
        return digits.sum(axis=1)

    def unpack(self, keys):
        # Column-major digits: each column divides the keys by one scalar.
        digits = keys // self.place[:, None] % self.radix[:, None]
        return digits.T.astype(np.int64, copy=False) + self.lo


def _sum_by_key(keys, values):
    """Unique keys in ascending order and the sum of ``values`` over each."""
    if len(keys) == 0:
        return keys, values
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(values, starts)


def _canonical_rows(x):
    """Each row with its first nonzero entry made positive.

    Valid because every factor of a term is even in its own argument.
    """
    if x.shape[1] == 0:  # rows of no delays have nothing to fold
        return x
    first = x[np.arange(len(x)), np.argmax(x != 0, axis=1)]
    return x * np.sign(first)[:, None]


def _correlations(first, second):
    """The four cross-correlations [E_u * E_v](lag) of one side's two entries.

    Entries are (amps, rows) arrays; row k of entry u and row l of entry v
    add amp_k * amp_l at lag row_l - row_k to group 2u + v, which packs as
    the key's top digit.  Returns the rows' span per column, which bounds
    every lag, the group boundaries, and the nonzero sums with their lag
    rows, sorted by (group, lag).  Refused past the budget before the pairs
    are built.
    """
    amps = np.concatenate([first[0], second[0]])
    rows = np.concatenate([first[1], second[1]])
    _check_budget(rows.shape[1], len(amps) ** 2, rows.shape[1] + 1)
    group = np.repeat([0, 1], [len(first[0]), len(second[0])])
    span = rows.max(axis=0, initial=0) - rows.min(axis=0, initial=0)
    lattice = _Lattice(np.r_[0, -span], np.r_[3, span])
    k, l = np.divmod(np.arange(len(amps) ** 2), len(amps))
    keys, sums = _sum_by_key(
        lattice.pack(np.column_stack([2 * group[k] + group[l], rows[l] - rows[k]])),
        amps[k] * amps[l])
    nonzero = sums != 0
    lags = lattice.unpack(keys[nonzero])
    return span, np.searchsorted(lags[:, 0], range(5)), lags[:, 1:], sums[nonzero]


def expand(tm: TransferMatrix, symmetry: ExchangeSymmetry) -> AnalyticModel:
    """Symbolic term-by-term integration of the squared coincidence density.

    The product amplitude A(ws) D(wi) + s B(ws) C(wi) is a sum of terms
    c_k exp(-i (ws x_k + wi y_k)); its square sums c_k c_l at (dx, dy) =
    (x_l - x_k, y_l - y_k) over all ordered pairs.  The amplitude has rank
    2 across the signal/idler split, so that sum r(dx, dy) is the sum over
    u, v of [L_u * L_v](dx) [R_u * R_v](dy), with L = (A, B), R = (D, s C)
    and [E * F](lag) the sum of e_k f_l over row pairs l - k = lag: four
    outer products of one-side correlations.  The rewrite ws dx + wi dy =
    (wp + W_plus)(dx+dy)/2 + W_minus (dx-dy)/2 turns each cell into a
    g_plus/g_minus product with half-integer delay arguments; sign-folded
    cells merge to real cosine terms, divided by the constant r(0, 0).

    All of this runs on an integer lattice: the entries' amplitudes and
    delay rows are integers, and arguments are kept doubled, so that the
    halves stay integral.  Each term's canonical (plus, minus) arguments
    pack into one key (int64 unless the lattice is very wide) that sorts in
    their lexicographic order.  The model keeps the merged integers over
    the least scales.  The correlation pairs and the cells are counted
    before they are built, and a cascade that would take more than
    ``EXPAND_MEMORY_BUDGET`` is refused with ``ExpansionTooLargeError``.
    """
    n = tm.n_delays
    entries = (tm.A, tm.B, tm.C, tm.D)
    amps, combos = [e.amps for e in entries], [e.rows for e in entries]
    # Rows within an entry are distinct, so by Cauchy-Schwarz a correlation
    # is at most |E| |F|.  A term collects one (dx, dy) per sign of each
    # half from each of the four products, so every sum, partial or not,
    # is at most 16 max(|A|^2, |B|^2) max(|C|^2, |D|^2); coefficients beyond
    # int64 stay Python integers.
    norms = [sum(a * a for a in e) for e in amps]
    bound = 16 * max(norms[0], norms[1]) * max(norms[2], norms[3])
    exact = np.int64 if bound <= _INT64_MAX else object
    amps = [np.array(a, dtype=exact) for a in amps]
    amps[2] = int(symmetry) * amps[2]
    # Lags reach 2x the largest combination, arguments 4x, their digits 8x.
    if 8 * max(map(abs, chain.from_iterable(chain.from_iterable(combos))), default=0) \
            >= _INT64_MAX:
        raise OverflowError("delay combinations exceed the int64 range of expand")
    combos = [np.array(e, dtype=np.int64).reshape(len(e), n) for e in combos]
    x_span, x_at, dx, left = _correlations((amps[0], combos[0]), (amps[1], combos[1]))
    y_span, y_at, dy, right = _correlations((amps[3], combos[3]), (amps[2], combos[2]))

    # Every (dx, dy) cell of the four outer products, group by group: cell
    # o of group g pairs left lag x_at[g] + o // ny[g] with right lag
    # y_at[g] + o % ny[g].  Counted, and refused past the budget, first.
    nx, ny = np.diff(x_at), np.diff(y_at)
    _check_budget(n, int(nx @ ny), 2 * n)
    g = np.repeat(np.arange(4), nx * ny)
    o = np.arange(len(g)) - np.repeat(np.cumsum(nx * ny) - nx * ny, nx * ny)
    i = x_at[g] + o // ny[g]
    j = y_at[g] + o % ny[g]
    x, y = dx[i], dy[j]
    rows = np.concatenate([_canonical_rows(x + y), _canonical_rows(x - y)], axis=1)
    pair = _Lattice(np.tile(-(x_span + y_span), 2), np.tile(x_span + y_span, 2))
    keys, sums = _sum_by_key(pair.pack(rows), left[i] * right[j])
    nonzero = sums != 0
    if not nonzero.any():
        raise ZeroBaselineError("cascade has zero asymptotic coincidence baseline")
    # The zero row sorts first among canonical rows, and its sum is the
    # constant r(0, 0) = sum c_k^2; every other sum already counts both
    # (dx, dy) and (-dx, -dy).
    rows = pair.unpack(keys[nonzero])
    sums = sums[nonzero]
    return AnalyticModel.from_rows(sums, rows[:, :n], rows[:, n:], n, symmetry,
                                   int(sums[0]), 2)


#: Samples per block of the broadcast delays in ``_walk``, which evaluates
#: values and envelopes.  One block's argument rows stay in cache, and the
#: memory held at once does not grow with the sweep.
CHUNK = 8192
#: Floats of argument rows one block may hold (32 MiB); models with many
#: distinct arguments (thousands from 6 delays on) get shorter blocks.
_ROW_BUDGET = 1 << 22


def _swept_arguments(args, taus):
    """``(k, row)`` for each of one side's argument rows k that reads an
    array delay.  The row is a list of floats, for ``combo_dot``'s sequence
    branch: the stacked branch cannot add an array delay's products into a
    1-D row's 0-d total, and the sequence branch skips zero coefficients."""
    columns = [i for i, t in enumerate(taus) if t.ndim]
    if not columns:
        return []
    swept = (args[:, columns] != 0).any(axis=1)
    return [(k, args[k].tolist()) for k in np.flatnonzero(swept).tolist()]


def _blocks(model: AnalyticModel, js: JointSpectrum, taus, shape, carrier):
    """Each argument row's numbers over blocks of the float delays ``taus``.

    Yields ``(block, cos, plus, minus)`` per block of at most ``CHUNK``
    samples (fewer past ``_ROW_BUDGET``), ``block`` a slice of the flattened
    broadcast ``shape``.  Per distinct nonzero row of ``model.arrays``,
    the lists hold cos(pump_frequency * p) (None unless ``carrier``; see
    ``_carrier``) and corr_plus(p), or corr_minus(m).  Every row is first
    a Python float, from one stacked ``combo_dot`` per side; the rows that
    read an array delay are then replaced in place each block, which drops
    the last block's.
    """
    if js.symmetry is not model.symmetry:
        raise ValueError("joint spectrum symmetry does not match the model")
    if len(taus) != model.n_delays:
        raise ValueError(f"expected {model.n_delays} delays, got {len(taus)}")
    _, plus_args, minus_args, _ = model.arrays
    plus_args, minus_args = plus_args[:-1], minus_args[:-1]  # not the zero row
    plus_swept = _swept_arguments(plus_args, taus)
    minus_swept = _swept_arguments(minus_args, taus)
    # The array delays read as 0.0: a zero coefficient times 0.0 leaves a
    # row's fold as it is, so a row that reads none of them gets its own
    # bits, and the rows that do are replaced before any fold reads them.
    scalars = [0.0 if t.ndim else t for t in taus]
    cos, plus, minus = [], [], []
    # A carrier phase that overflows makes the values NaN, which the
    # caller's finiteness check reports once, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(plus_args):
            x = combo_dot(plus_args, scalars)
            cos = np.cos(js.pump_frequency * x).tolist() if carrier else None
            plus = js.plus.corr(x).tolist()
    if len(minus_args):
        minus = js.minus.corr(combo_dot(minus_args, scalars)).tolist()
    # A basic slice of a 1-D delay is a view; more dimensions are read
    # flat, one block at a time, from the broadcast view.
    taus = [t if t.ndim == 0 else np.broadcast_to(t, shape) for t in taus]
    flat = len(shape) > 1
    size = math.prod(shape)
    rows = 2 * len(plus_swept) + len(minus_swept)
    step = max(1, min(CHUNK, _ROW_BUDGET // max(rows, 1)))
    for start in range(0, size, step):
        block = slice(start, min(start + step, size))
        at = [t if t.ndim == 0 else (t.flat[block] if flat else t[block])
              for t in taus]
        with np.errstate(over="ignore", invalid="ignore"):
            for k, arg in plus_swept:
                x = combo_dot(arg, at)
                plus[k] = js.plus.corr(x)
                if carrier:
                    cos[k] = _carrier(js.pump_frequency * x, plus[k])
        for k, arg in minus_swept:
            minus[k] = js.minus.corr(combo_dot(arg, at))
        yield block, cos, plus, minus


def _carrier(phase, plus):
    """cos(phase), left 0.0 on blocks of ``_MASKED_LANES`` and more where
    ``plus`` is 0 and the phase finite.

    Such a lane's term is +-0 whatever its cosine.  The value fold starts
    at +0.0 and, rounding to nearest, never reaches -0.0, so adding +-0
    leaves every sum as it is; a non-finite phase keeps its NaN.
    """
    if phase.size < _MASKED_LANES or plus.all():
        return np.cos(phase)
    out = np.zeros_like(phase)
    return np.cos(phase, out=out, where=(plus != 0) | ~np.isfinite(phase))


def _walk(model: AnalyticModel, js: JointSpectrum, taus, values, envelopes):
    """``(values, upper, lower)`` in the delays' broadcast shape from one
    ``_blocks`` walk, None for a fold not run; only ``values`` reads a cosine.

    Each fold keeps its own order, in model order: values sum ``coeff * cos
    * plus * minus``; the envelopes are base +- swing, with base summing the
    carrier-free terms' ``coeff * minus`` and swing the others' magnitudes.
    """
    taus = [np.asarray(t, dtype=float) for t in taus]
    shape = np.broadcast_shapes(*(t.shape for t in taus))
    size = math.prod(shape)
    out = np.empty(size) if values else None
    upper, lower = (np.empty(size), np.empty(size)) if envelopes else (None, None)
    plan = model._plan
    for block, cos, plus, minus in _blocks(model, js, taus, shape, values):
        if values:
            total = 0.0
            for coeff, p, m in plan:
                value = coeff
                if p is not None:
                    value = value * cos[p] * plus[p]
                if m is not None:
                    value = value * minus[m]
                total = total + value
            out[block] = total
        if envelopes:
            base = swing = 0.0
            for coeff, p, m in plan:
                value = coeff
                if m is not None:
                    value = value * minus[m]
                if p is None:
                    base = base + value
                else:
                    swing = swing + np.abs(value * plus[p])
            upper[block] = base + swing
            lower[block] = base - swing
    return tuple(None if a is None else a.reshape(shape) for a in (out, upper, lower))


def evaluate(model: AnalyticModel, js: JointSpectrum, taus):
    """Numeric R_N at concrete delays (entries may be numpy arrays).

    The result has the delays' broadcast shape; scalar delays give a
    scalar.
    """
    return _walk(model, js, taus, True, False)[0][()]


def swap_rule(model: AnalyticModel) -> AnalyticModel:
    """Model for the swapped input state (|1,1> <-> |2002>).

    Exchanges the sum/difference roles of every argument and flips the
    sign of all non-constant coefficients.  Swapping is one-to-one on
    canonical argument pairs, so the terms only need re-sorting.

    For a symmetric spectrum this is the model of the cascade with a
    delay-free splitter prepended only when each delay labels at most one
    splitter and there is no input delay; with a repeated label, e.g.
    [1, 0, 1], the two differ.
    """
    # Rows over one positive scale sort as the rationals they stand for.
    swapped = sorted((m, p, c if not (any(p) or any(m)) else -c)
                     for c, p, m in zip(model.coeffs, model.plus, model.minus))
    plus, minus, coeffs = zip(*swapped)
    return replace(model, coeffs=coeffs, plus=plus, minus=minus)


def antisymmetric_equivalence_check(tm_a: TransferMatrix,
                                    tm_b: TransferMatrix) -> bool:
    """True iff the two cascades are indistinguishable for fermionic pairs."""
    model_a = expand(tm_a, ExchangeSymmetry.ANTISYMMETRIC)
    model_b = expand(tm_b, ExchangeSymmetry.ANTISYMMETRIC)
    return model_a == model_b


def _corr_product_peaks(js: JointSpectrum, fix, slope):
    """max over t of |corr_plus(fix_+ + slope_+ t) * corr_minus(fix_- + slope_- t)|.

    ``fix`` and ``slope`` are ``(K, 2)`` arrays, plus then minus argument;
    one peak per row.  Each factor is poly(q) exp(-q/2) with q = (sigma x)^2
    and poly = 1 (Gaussian) or 1 - q (first Hermite-Gaussian).  With t
    shifted to the minimum of the summed q and scaled by its curvature, each
    sigma x is alpha + beta v with beta_+^2 + beta_-^2 = 1, and the product
    is P(v) exp(-(q_min + v^2)/2).  A nonzero slope makes that vanish at
    both ends, so its largest magnitude is at a real root of P' - v P
    (degree <= 5).  The candidates are the real parts of all roots, plus
    t = 0, which alone serves when both slopes vanish: every candidate is
    a real point and the maximiser is among them, so no root is filtered.

    The summed q is at least q_min = |alpha|^2 everywhere.  From 2 *
    ``_HERMITE_CAP`` on, one factor has q >= the cap at every t and is
    exactly 0 there, so such a row's peak is 0 without its polynomial.
    """
    sigma = np.array([js.plus.sigma, js.minus.sigma])
    rate = sigma * slope
    curvature = (rate ** 2).sum(axis=1)
    scale = np.sqrt(np.where(curvature > 0, curvature, 1.0))
    t0 = -(rate * sigma * fix).sum(axis=1) / scale ** 2
    alpha = sigma * fix + rate * t0[:, None]
    beta = rate / scale[:, None]
    vanishing = np.isfinite(alpha).all(axis=1) & \
        (np.hypot(alpha[:, 0], alpha[:, 1]) >= math.sqrt(2 * _HERMITE_CAP))
    alpha[vanishing] = 0.0
    # P(v) and then P' - v P as coefficient rows, lowest power first.
    poly = np.zeros((len(fix), 6))
    poly[:, 0] = 1.0
    for col, profile in enumerate((js.plus, js.minus)):
        if profile.is_odd:
            a, b = alpha[:, col:col + 1], beta[:, col:col + 1]
            poly = poly * (1 - a * a) - 2 * a * b * np.roll(poly, 1, axis=1) \
                - b * b * np.roll(poly, 2, axis=1)
    stationary = np.roll(poly * np.arange(6), -1, axis=1) - np.roll(poly, 1, axis=1)
    nonzero = stationary != 0
    # Overflowed rows get no roots and a NaN peak, so they are never dropped.
    finite = np.isfinite(stationary).all(axis=1)
    degree = np.where(finite & nonzero.any(axis=1),
                      5 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    candidates = np.zeros((len(fix), 6))
    for d in set(degree.tolist()) - {0}:
        rows = degree == d
        companion = np.zeros((rows.sum(), d, d))
        companion[:, 1:, :-1] = np.eye(d - 1)
        companion[:, :, -1] = -stationary[rows, :d] / stationary[rows, d:d + 1]
        roots = np.linalg.eigvals(companion).real
        candidates[rows, 1:d + 1] = t0[rows, None] + roots / scale[rows, None]
    x = fix[:, :, None] + slope[:, :, None] * candidates[:, None, :]
    peaks = np.abs(js.plus.corr(x[:, 0]) * js.minus.corr(x[:, 1])).max(axis=1)
    return np.where(vanishing, 0.0, np.where(finite, peaks, np.nan))


def _delay_vector(n_delays: int, fixed: dict, swept: int, value):
    """Each delay of a sweep: ``value`` at index ``swept``, ``fixed[i]`` at
    every other index i; refused if ``swept`` is out of range or ``fixed``
    misses an index."""
    if not 0 <= swept < n_delays:
        raise ValueError(f"swept delay {swept} out of range for {n_delays} delays")
    missing = set(range(n_delays)) - {swept} - set(fixed)
    if missing:
        raise ValueError(f"fixed delays missing indices {sorted(missing)}")
    return [value if i == swept else fixed[i] for i in range(n_delays)]


def asymptotic_prune(model: AnalyticModel, fixed: dict, swept: int,
                     js: JointSpectrum, threshold: float) -> AnalyticModel:
    """Drop terms whose peak magnitude along the swept delay is below threshold.

    ``fixed`` maps every non-swept delay index to its value.  The carrier
    is bounded by 1, so the peak of each term is the maximum of
    |coeff| * |corr_plus| * |corr_minus| over the swept delay's real line.
    ``model`` is taken as ``expand`` returns it (canonical, merged and
    sorted); the kept terms are an in-order subset of it.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    # The swept delay at 0.0 adds an exact zero, leaving the fixed part.
    at_origin = _delay_vector(model.n_delays, fixed, swept, 0.0)
    coeffs, plus, minus, index = model.arrays
    args = np.stack([plus[index[:, 0]], minus[index[:, 1]]], axis=1)
    peaks = np.abs(coeffs) * _corr_product_peaks(
        js, combo_dot(args, at_origin), args[:, :, swept])
    kept = np.flatnonzero(~(peaks < threshold) | (index < 0).all(axis=1)).tolist()
    return AnalyticModel.from_rows(
        *([rows[k] for k in kept] for rows in (model.coeffs, model.plus, model.minus)),
        model.n_delays, model.symmetry, model.coeff_scale, model.arg_scale)


def _render(model: AnalyticModel, latex: bool) -> str:
    """Each distinct magnitude and argument row is formatted once."""
    names = [rf"\tau_{{{i + 1}}}" if latex else f"t{i + 1}"
             for i in range(model.n_delays)]

    def magnitude(value: int) -> str:
        mag = Fraction(abs(value), model.coeff_scale)
        if latex and mag.denominator != 1:
            return rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        return str(mag)

    def combo(row) -> str:
        parts = []
        for name, c in zip(names, row):
            if c == 0:
                continue
            if abs(c) == model.arg_scale:
                piece = name
            else:
                mag = str(Fraction(abs(c), model.arg_scale))
                piece = rf"{mag}\,{name}" if latex else f"{mag} {name}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    g_plus, g_minus, join = (r"g_+", r"g_-", r"\,") if latex else ("g+", "g-", " ")
    coeffs = {c: magnitude(c) for c in set(model.coeffs)}
    plus = {p: f"{g_plus}({combo(p)})" for p in set(model.plus) if any(p)}
    minus = {m: f"{g_minus}({combo(m)})" for m in set(model.minus) if any(m)}
    chunks = []
    for c, p, m in zip(model.coeffs, model.plus, model.minus):
        factors = []
        if abs(c) != model.coeff_scale or not (any(p) or any(m)):
            factors.append(coeffs[c])
        if any(p):
            factors.append(plus[p])
        if any(m):
            factors.append(minus[m])
        body = join.join(factors)
        if not chunks:
            chunks.append(body if c >= 0 else f"-{body}")
        else:
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(chunks)


def render_text(model: AnalyticModel) -> str:
    """Plain-text rendering, e.g. ``1 - g-(t1)``."""
    return _render(model, latex=False)


def render_latex(model: AnalyticModel) -> str:
    return _render(model, latex=True)
