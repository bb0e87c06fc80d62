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
One walk over the terms, ``walk``, folds them into values (``evaluate``),
into carrier-free envelopes, or into both (``interferogram.analytic_sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .cascade import (InputError, TransferMatrix, ZeroBaselineError, combo_dot, delay_vector,
                      swept_dot, swept_fold)
from .spectra import ExchangeSymmetry, JointSpectrum, corr_product_peaks

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
    def from_rows(coeffs, rows, index, n_delays: int, symmetry: ExchangeSymmetry,
                  coeff_scale: int = 1, arg_scale: int = 1) -> "AnalyticModel":
        """The model of integer terms in the order given, over the least scales.

        Term k has numerator ``coeffs[k]``, plus argument ``rows[index[0][k]]``
        and minus argument ``rows[index[1][k]]``.  Numerators are a sequence
        or an array, int64 or ``object``; ``rows`` is an int64 array of
        ``(rows, n_delays)`` or a sequence of such rows.  Each row becomes
        one tuple, which every term that reads it shares.
        """
        coeffs, rows = _int_array(coeffs), np.asarray(rows, dtype=np.int64)
        # Reducing by the common divisor leaves each scale the least one.
        coeff_gcd = math.gcd(coeff_scale, int(np.gcd.reduce(coeffs)))
        arg_gcd = math.gcd(arg_scale, int(np.gcd.reduce(rows, axis=None)))
        rows = list(map(tuple, (rows // arg_gcd).tolist()))
        plus, minus = (tuple(map(rows.__getitem__, side)) for side in np.asarray(index).tolist())
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
        """``(terms, plus, minus)`` for ``walk``, built once per model: each
        term's ``(coeff, plus, minus)``, the float coefficient and the term's
        rows of ``arrays``, which index the lists ``_blocks`` yields, None
        for a zero argument; and each side's rows of ``arrays`` but the zero
        row."""
        coeffs, plus, minus, index = self.arrays
        terms = tuple((c, None if p < 0 else p, None if m < 0 else m)
                      for c, (p, m) in zip(coeffs.tolist(), index.tolist()))
        return terms, plus[:-1], minus[:-1]

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
#: each (dx, dy) cell.  Neither is built as a row of delays, only keyed, so
#: the charge is generous: a 7-delay chain traces at about 3.3, its model's
#: tuples included.
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

    However few its terms, ``expand`` is charged for at least one cell of
    2 n_delays int64 columns, as it is charged for every cell; a count
    past the budget at that one cell is refused before the cascade's rows
    of n_delays entries are composed.
    """
    _check_budget(n_delays, 1, 2 * n_delays)


class _Lattice:
    """Mixed-radix keys of integer rows whose columns lie in lo..hi.

    A row's key is the sum over its columns of (x_c - lo_c) place_c: one
    non-negative digit per column, the first most significant, so keys
    sort in the rows' lexicographic order.  The key is linear in the row,
    so on a lattice symmetric about zero (lo = -hi) the key of a sum or a
    difference of rows, less the zero row's key ``size // 2``, is the sum
    or difference of theirs; ``expand`` keys its correlation pairs and
    its cells that way, without building their rows.  Keys are int64
    while the lattice size fits, Python integers past that; a cascade
    with each delay on one splitter fits int64 up to 13 delays.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.radix = np.asarray(hi, dtype=np.int64) - self.lo + 1
        place, size = [], 1
        for base in reversed(self.radix.tolist()):  # one running product
            place.append(size)
            size *= base
        self.size = size
        self.dtype = np.int64 if size - 1 <= _INT64_MAX else object
        self.place = np.array(place[::-1], dtype=self.dtype)

    def pack(self, rows):
        """The keys of ``(rows, columns)`` integer rows: their digits
        summed over the columns, each partial sum within the key's range."""
        return (rows - self.lo).astype(self.dtype, copy=False) @ self.place

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
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(values, starts)


def _correlations(sides, half, dtype):
    """The four cross-correlations [E_u * E_v](lag) of each side's two
    entries, merged in one sort.

    Each side is its two entries' (amps, rows) arrays.  Row k of entry u
    and row l of entry v add amp_k * amp_l at lag row_l - row_k to group
    g = 4 side + 2u + v, whose key is g ``half.size`` plus the lag's key
    in ``half`` (a lattice symmetric about zero that holds every lag): by
    linearity, the pair's key is one sum of a term of k and a term of l.
    Returns each side's four groups as (signed lag keys, nonzero sums),
    the lags ascending; the lag keys are ``dtype`` and hold each lag's key
    in ``half`` less the zero lag's.  Refused past the budget before the
    pairs are built.
    """
    # a side's pairs are all ordered pairs of its two entries' rows
    n_pairs = sum((len(first) + len(second)) ** 2 for (first, second), _ in sides)
    _check_budget(len(half.lo), n_pairs, len(half.lo) + 1)
    size, zero = half.size, half.size // 2
    keys, sums = [], []
    for side, (amps, rows) in enumerate(sides):
        group = np.repeat(np.array([0, 1], dtype=dtype), [len(e) for e in amps])
        amps = np.concatenate(amps)
        # Each row's key less the zero row's: pair (k, l) keys its lag as
        # zero - row_k + row_l.
        row = half.pack(np.concatenate(rows)).astype(dtype, copy=False) - zero
        keys.append(np.add.outer((4 * side + 2 * group) * size + zero - row,
                                 group * size + row).ravel())
        sums.append(np.multiply.outer(amps, amps).ravel())
    keys, sums = _sum_by_key(np.concatenate(keys), np.concatenate(sums))
    nonzero = sums != 0
    keys, sums = keys[nonzero], sums[nonzero]
    at = np.searchsorted(keys, [g * size for g in range(9)]).tolist()
    groups = [(keys[at[g]:at[g + 1]] - (g * size + zero), sums[at[g]:at[g + 1]])
              for g in range(8)]
    return groups[:4], groups[4:]


def _cells(left, right, half, exact):
    """Every (dx, dy) cell of the four outer products, keyed by its
    canonical (plus, minus) rows, and its sum c_k c_l, in group order.

    ``left`` and ``right`` are ``_correlations``' groups of each side:
    signed lag keys on the lattice ``half``, symmetric about zero, and
    sums.  The cells are counted, and refused past the budget, before any
    is built.  A cell's doubled arguments are dx + dy and dx - dy, whose
    signed keys are the sum and the difference of its lags' keys.  On such
    a lattice a signed key takes the sign of the row's first nonzero
    column, as every later column weighs less than one unit of it; so
    making that column positive, which is valid because every factor of a
    term is even in its own argument, is the key's absolute value.  The
    key is then |plus| ``half.size`` + |minus|: the pair lattice's key
    less its zero row's, which sorts the cells by their (plus, minus) rows.
    """
    counts = [len(x) * len(y) for (x, _), (y, _) in zip(left, right)]
    _check_budget(len(half.lo), sum(counts), 2 * len(half.lo))
    keys = np.empty(sum(counts), dtype=left[0][0].dtype)
    minus = np.empty(len(keys), dtype=keys.dtype)
    sums = np.empty(len(keys), dtype=exact)
    start = 0
    for ((x, l), (y, r)), count in zip(zip(left, right), counts):
        block = slice(start, start + count)
        shape = len(x), len(y)
        np.add(x[:, None], y, out=keys[block].reshape(shape))
        np.subtract(x[:, None], y, out=minus[block].reshape(shape))
        np.multiply(l[:, None], r, out=sums[block].reshape(shape))
        start += count
    np.abs(keys, out=keys)
    keys *= half.size
    keys += np.abs(minus, out=minus)
    return keys, sums


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
    halves stay integral.  Each lag and each argument packs into one key
    of a lattice symmetric about zero that holds every argument (int64
    unless the (plus, minus) pair lattice is very wide).  Keys are linear
    in the rows, so both sides' correlations take one sort of keys summed
    from their entries' rows (``_correlations``), and each cell's key is
    summed from its two lags' keys (``_cells``): no lag or cell is built
    as a row of delays; only the merged terms' distinct argument rows are
    unpacked.  The model keeps the merged integers over the least scales.  The correlation
    pairs and the cells are counted before they are built, and a cascade
    that would take more than ``EXPAND_MEMORY_BUDGET`` is refused with
    ``ExpansionTooLargeError``.
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
    sides = ((amps[0], amps[1]), (combos[0], combos[1])), \
        ((amps[3], amps[2]), (combos[3], combos[2]))
    # Each side's lags lie within its rows' span per column, so a doubled
    # argument dx +- dy lies within the sum of the two spans.
    span = sum(rows.max(axis=0, initial=0) - rows.min(axis=0, initial=0)
               for rows in (np.concatenate(combos[:2]), np.concatenate(combos[2:])))
    half = _Lattice(-span, span)
    size = half.size
    dtype = np.int64 if size * size - 1 <= _INT64_MAX else object
    left, right = _correlations(sides, half, dtype)
    keys, sums = _sum_by_key(*_cells(left, right, half, exact))
    nonzero = sums != 0
    if not nonzero.any():
        raise ZeroBaselineError("cascade has zero asymptotic coincidence baseline")
    # The zero row sorts first among canonical rows, and its sum is the
    # constant r(0, 0) = sum c_k^2; every other sum already counts both
    # (dx, dy) and (-dx, -dy).  Terms share argument rows, so only the
    # distinct ones are unpacked.
    keys, sums = keys[nonzero], sums[nonzero]
    rows, index = np.unique(np.concatenate([keys // size, keys % size]), return_inverse=True)
    return AnalyticModel.from_rows(sums, half.unpack(rows + size // 2), index.reshape(2, -1),
                                   n, symmetry, int(sums[0]), 2)


#: Samples per block of the broadcast delays in ``walk``, which evaluates
#: values and envelopes.  One block's argument rows stay in cache, and the
#: memory held at once does not grow with the sweep.
CHUNK = 8192
#: Floats of argument rows one block may hold (32 MiB); models with many
#: distinct arguments (thousands from 6 delays on) get shorter blocks.
_ROW_BUDGET = 1 << 22


def _swept_arguments(args, columns):
    """``(k, row)`` for each of one side's argument rows k that reads an
    array delay, the delays at ``columns``; with one such delay, in order
    of the rows' coefficient there, their slope, for ``swept_dot``.  The
    row is a list of floats, for ``combo_dot``'s sequence branch or
    ``swept_fold``: the stacked branch cannot add an array delay's products
    into a 1-D row's 0-d total, and the sequence branch skips zero
    coefficients."""
    if not columns:
        return []
    swept = (args[:, columns] != 0).any(axis=1)
    rows = [(k, args[k].tolist()) for k in np.flatnonzero(swept).tolist()]
    if len(columns) == 1:
        rows.sort(key=lambda row: row[1][columns[0]])
    return rows


def _dead_rows(rows, far, scale, taus, column):
    """Which swept argument ``rows`` are exactly +-0 on every lane of a block
    whose one array delay is ``taus[column]``: a list of bools, all False
    unless every lane of every row is finite there.

    Each row is folded at the array's least and greatest value by
    ``combo_dot``'s stacked left fold, in delay order, which gives the bits
    of the lanes that hold those values.  Each fold step, fl(c t) or
    fl(u + v), is monotone in that delay, so every lane's argument lies
    between the two ends.  A row whose ends lie on one side at its ``far``,
    its profile's ``zero_from``, or beyond is therefore exactly +-0 on
    every lane.
    ``scale`` is the pump frequency for a row whose carrier is read, else
    1: finite ``scale * ends`` bound every lane's argument and carrier
    phase, so every other factor of a dead row's terms is finite, and each
    such term is +-0.  A NaN delay makes the ends NaN, and an infinite one
    makes them infinite; neither block skips a row.
    """
    t = taus[column]
    ends = list(taus)
    ends[column] = np.array([[t.min()], [t.max()]])
    x = combo_dot(np.broadcast_to(rows, (2, *rows.shape)), ends)
    if not np.isfinite(scale * x).all():
        return [False] * len(rows)
    return ((x >= far).all(axis=0) | (x <= -far).all(axis=0)).tolist()


def _blocks(model: AnalyticModel, js: JointSpectrum, taus, shape, carrier):
    """Each argument row's numbers over blocks of the float delays ``taus``.

    Yields ``(block, terms, cos, plus, minus)`` per block of at most
    ``CHUNK`` samples (fewer past ``_ROW_BUDGET``), ``block`` a slice of the
    flattened broadcast ``shape``.  Per distinct nonzero row of
    ``model.arrays``, the lists hold cos(pump_frequency * p) (None unless
    ``carrier``; see ``JointSpectrum.carrier``) and corr_plus(p), or
    corr_minus(m).
    Every row is first a Python float, from one stacked ``combo_dot`` per
    side; the rows that read an array delay are then replaced in place each
    block, which drops the last block's.  Where exactly one delay is an
    array, each such row is split once by ``swept_fold`` and rebuilt per
    block by ``swept_dot``; the rows of each side come in slope order, so
    each distinct slope is multiplied by the block's delays once per side.
    Two or more array delays take ``combo_dot`` per row.  ``terms`` is
    ``model._plan``'s terms, in order, less those that read a dead row.

    A row is dead on a block when it is exactly +-0 on every lane there
    (see ``_dead_rows``); it is then None, and neither its ``combo_dot``,
    its ``corr`` nor its carrier is computed.  Rows die only where exactly
    one delay is an array, as in every sweep, and only while every row is
    finite at the scalar delays, with a finite carrier phase when
    ``carrier``: every other factor of a dead row's terms is then finite,
    so each such term is +-0 on every lane of the block.  Scalar delays
    and two or more array delays keep every row.
    """
    if js.symmetry is not model.symmetry:
        raise ValueError("joint spectrum symmetry does not match the model")
    if len(taus) != model.n_delays:
        raise ValueError(f"expected {model.n_delays} delays, got {len(taus)}")
    plan, plus_args, minus_args = model._plan
    arrays = [i for i, t in enumerate(taus) if t.ndim]
    plus_swept = _swept_arguments(plus_args, arrays)
    minus_swept = _swept_arguments(minus_args, arrays)
    one = len(arrays) == 1
    skip = one and bool(plus_swept or minus_swept)
    # The array delays read as 0.0: a zero coefficient times 0.0 leaves a
    # row's fold as it is, so a row that reads none of them gets its own
    # bits, and the rows that do are replaced before any fold reads them.
    scalars = [0.0 if t.ndim else t for t in taus]
    cos, plus, minus = None, [], []
    # A carrier phase that overflows makes the values NaN, which the
    # caller's finiteness check reports once, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(plus_args):
            x = combo_dot(plus_args, scalars)
            plus = js.plus.corr(x)
            if carrier:  # the cosines, finite where the phases are
                x = js.carrier(x, plus)
                cos = x.tolist()
            plus = plus.tolist()
            skip = skip and np.isfinite(x).all()
    if len(minus_args):
        x = combo_dot(minus_args, scalars)
        minus = js.minus.corr(x).tolist()
        skip = skip and np.isfinite(x).all()
    if not arrays:  # one sample, whose rows are all floats already
        yield slice(0, 1), plan, cos, plus, minus
        return
    if skip:
        swept = np.array([arg for _, arg in plus_swept + minus_swept])
        counts = [len(plus_swept), len(minus_swept)]
        far = np.repeat([js.plus.zero_from, js.minus.zero_from], counts)
        scale = np.repeat([js.pump_frequency if carrier else 1.0, 1.0], counts)
    if one:
        plus_swept, minus_swept = ([(k, swept_fold(arg, taus, arrays[0])) for k, arg in rows]
                                   for rows in (plus_swept, minus_swept))
    # A basic slice of a 1-D delay is a view; more dimensions are read
    # flat, one block at a time, from the broadcast view.
    taus = [t if t.ndim == 0 else np.broadcast_to(t, shape) for t in taus]
    flat = len(shape) > 1
    size = math.prod(shape)
    rows = 2 * len(plus_swept) + len(minus_swept)
    step = max(1, min(CHUNK, _ROW_BUDGET // max(rows, 1)))
    dead = [False] * (len(plus_swept) + len(minus_swept))

    def row(arg):  # a swept row's values on the current block
        return swept_dot(arg, at[arrays[0]], last) if one else combo_dot(arg, at)

    for start in range(0, size, step):
        block = slice(start, min(start + step, size))
        at = [t if t.ndim == 0 else (t.flat[block] if flat else t[block])
              for t in taus]
        last = {}  # the last slope's product with this block's delays
        with np.errstate(over="ignore", invalid="ignore"):
            if skip:
                dead = _dead_rows(swept, far, scale, at, arrays[0])
            for (k, arg), gone in zip(plus_swept, dead):
                if gone:
                    plus[k] = None
                    if carrier:
                        cos[k] = None
                    continue
                x = row(arg)
                plus[k] = js.plus.corr(x)
                if carrier:
                    cos[k] = js.carrier(x, plus[k])
        for (k, arg), gone in zip(minus_swept, dead[len(plus_swept):]):
            minus[k] = None if gone else js.minus.corr(row(arg))
        terms = plan
        if True in dead:
            terms = [(c, p, m) for c, p, m in plan if (p is None or plus[p] is not None)
                     and (m is None or minus[m] is not None)]
        yield block, terms, cos, plus, minus


def walk(model: AnalyticModel, js: JointSpectrum, taus, values, envelopes):
    """``(values, upper, lower)`` in the delays' broadcast shape from one
    ``_blocks`` walk, None for a fold not run; only ``values`` reads a cosine.

    Each fold keeps its own order, in model order: values sum ``coeff * cos
    * plus * minus``; the envelopes are base +- swing, with base summing the
    carrier-free terms' ``coeff * minus`` and swing the others' magnitudes.
    Both folds skip the terms of a row that is dead on the block, which are
    +-0 on every lane there, and the value fold adds the +-0 of each lane
    whose cosine ``JointSpectrum.carrier`` left 0.0.  That is exact: each
    fold starts at +0.0 and, rounding to nearest, never reaches -0.0, so
    adding +-0 changes no sum.  The folds run in place, values in ``out``,
    base in ``upper`` and swing in ``lower``, each term's product in one
    scratch block (``_product``); values at one sample run on Python
    floats (``_fold_floats``), with the same operations in the same order.
    """
    taus = [np.asarray(t, dtype=float) for t in taus]
    # At one sample every delay is 0-d, and np.broadcast_shapes (about 2 µs
    # a call) is skipped.
    shapes = [t.shape for t in taus if t.ndim]
    shape = np.broadcast_shapes(*shapes) if shapes else ()
    size = math.prod(shape)
    out = np.empty(size) if values else None
    upper, lower = (np.empty(size), np.empty(size)) if envelopes else (None, None)
    scratch = np.empty(min(size, CHUNK)) if shape or envelopes else None
    for block, terms, cos, plus, minus in _blocks(model, js, taus, shape, values):
        if values and not shape:
            out[0] = _fold_floats(terms, cos, plus, minus)
        elif values:
            total, product = out[block], scratch[:block.stop - block.start]
            total.fill(0.0)
            for coeff, p, m in terms:
                factors = () if p is None else (cos[p], plus[p])
                if m is not None:
                    factors += (minus[m],)
                total += _product(product, coeff, factors)
        if envelopes:
            base, swing = upper[block], lower[block]
            product = scratch[:block.stop - block.start]
            base.fill(0.0)
            swing.fill(0.0)
            for coeff, p, m in terms:
                value = _product(product, coeff, () if m is None else (minus[m],))
                if p is None:
                    base += value
                else:
                    value = _product(product, value, (plus[p],))
                    swing += np.abs(value, out=value) if value is product else abs(value)
            np.subtract(base, swing, out=product)
            base += swing
            swing[...] = product
    return tuple(None if a is None else a.reshape(shape) for a in (out, upper, lower))


def _product(buffer, value, factors):
    """``value`` times each of ``factors`` in turn: a float while every
    factor is one, then in place in ``buffer`` from the first array on
    (fl(a b) = fl(b a), so the bits are those of the plain product)."""
    for factor in factors:
        if value is buffer:
            buffer *= factor
        elif type(factor) is float:
            value = value * factor
        else:
            value = np.multiply(factor, value, out=buffer)
    return value


def _fold_floats(terms, cos, plus, minus) -> float:
    """``walk``'s value fold at one sample, on Python floats."""
    total = 0.0
    for coeff, p, m in terms:
        value = coeff
        if p is not None:
            value = value * cos[p] * plus[p]
        if m is not None:
            value = value * minus[m]
        total = total + value
    return total


def evaluate(model: AnalyticModel, js: JointSpectrum, taus):
    """Numeric R_N at concrete delays (entries may be numpy arrays).

    The result has the delays' broadcast shape; scalar delays give a
    scalar.
    """
    return walk(model, js, taus, True, False)[0][()]


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
    at_origin = delay_vector(model.n_delays, fixed, swept, 0.0)
    coeffs, plus, minus, index = model.arrays
    args = np.stack([plus[index[:, 0]], minus[index[:, 1]]], axis=1)
    peaks = np.abs(coeffs) * corr_product_peaks(
        js, combo_dot(args, at_origin), args[:, :, swept])
    kept = np.flatnonzero(~(peaks < threshold) | (index < 0).all(axis=1)).tolist()
    coeffs, plus, minus = ([rows[k] for k in kept]
                           for rows in (model.coeffs, model.plus, model.minus))
    # Fewer terms may share a larger divisor with a scale; the constant
    # term is always kept, so none of the gcds is taken over nothing.
    coeff_gcd = math.gcd(model.coeff_scale, *coeffs)
    arg_gcd = math.gcd(model.arg_scale, *set(chain.from_iterable(plus + minus)))
    if arg_gcd > 1:
        rows = {row: tuple(v // arg_gcd for v in row) for row in set(plus + minus)}
        plus, minus = [rows[p] for p in plus], [rows[m] for m in minus]
    return AnalyticModel(tuple(c // coeff_gcd for c in coeffs), tuple(plus), tuple(minus),
                         model.n_delays, model.symmetry, model.coeff_scale // coeff_gcd,
                         model.arg_scale // arg_gcd)


def _render(model: AnalyticModel, latex: bool) -> str:
    """Each distinct coefficient, argument entry magnitude and argument row
    is formatted once."""
    names = [rf"\tau_{{{i + 1}}}" if latex else f"t{i + 1}"
             for i in range(model.n_delays)]

    def magnitude(value: int) -> str:
        mag = Fraction(abs(value), model.coeff_scale)
        if latex and mag.denominator != 1:
            return rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        return str(mag)

    rows = set(model.plus).union(model.minus)
    scaled = {v: str(Fraction(v, model.arg_scale)) for v in set(map(abs, set().union(*rows)))}

    def combo(row) -> str:
        parts = []
        for name, c in zip(names, row):
            if c == 0:
                continue
            if abs(c) == model.arg_scale:
                piece = name
            else:
                mag = scaled[abs(c)]
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
