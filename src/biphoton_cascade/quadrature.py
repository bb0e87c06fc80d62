"""Brute-force numerical oracle for the coincidence probability.

Computes R(taus) by a tensor-product trapezoid rule over the coincidence
density in the sum/difference detunings, with the integration domain
extended to the full real plane (exact to spectral-tail accuracy given the
pump-frequency guard on the joint spectrum).  Deliberately independent of
the closed-form engine: nothing here knows about g functions or term
lists, only about evaluating the density on a grid.

Each axis has its own node count, N+ and N-, sized by its own linewidth,
so a grid is N+ x N-.  Each entry's field is a rank-K product of per-axis
factors, so the weighted density sum can be contracted in two orders, and
``integrate_R`` picks the cheaper from the counts and the term width K:

* row blocks (K^3 (N+ + N-) > 2 N+ N-): the four fields are formed
  ``ROW_BLOCK`` nodes of the shorter axis at a time and their squared
  combination summed, O(N+ N- K);
* Gram form (K^3 (N+ + N-) <= 2 N+ N-): the face-split (Khatri-Rao)
  factors U (N+ x 2K^2) and V (2K^2 x N-) of the combined amplitude give
  the sum as tr(U^H U . V V^H), O((N+ + N-) K^4); the Grams are
  accumulated over fixed blocks of nodes, so U and V are never held whole.

The rule was measured (``_contract``); on a square grid of N nodes per
axis it is K^3 <= N.  Either way a call's memory grows with N+ + N-, not
N+ N-.

The factors come from ``TransferMatrix.phase_plan``, built once per
matrix: the entries' amplitudes zero-padded to K terms, the D distinct
delay rows among the 4 K (entry, term) slots, and each slot's row.  A
call evaluates the D rows (``_phases``) and takes one cosine and sine
per distinct phase, in an (N+, D) and a (D, N-) table that the slots
gather from (``_factors``); the entries share most of their rows, so D
is 2-8 where 4 K is 4-32 on the presets.

What does not depend on the delays is built once per grid, not once per
point: each axis's nodes, the square roots of its weighted intensity j
and the sums of j over all nodes and over those of even index, which are
a function of the node count, the half-width and the profile alone
(``_axis_data``).  They are kept in an LRU cache of ``_AXIS_CACHE_SIZE``
(128) axes; an entry holds two read-only arrays of at most
``MAX_NODES_PER_AXIS`` floats, so the cache holds at most 9.2 MiB.  Per
point a call evaluates the phases and factors and contracts them.

The oracle certifies itself.  On an axis of odd N nodes the M = (N+1)/2
nodes of even index form the trapezoid grid of M nodes over the same
window; on a grid odd on both axes they make the half grid.  Both orders
also sum the even-row, even-column share of the weighted density;
normalised by the even-node sums of j+ and j-, that is the value on the
half grid (the factor 2 of its weights cancels).  The trapezoid error of
a smooth, decaying integrand falls faster than geometrically with N, so
the half grid's error dominates |R_N - R_half|, which
``integrate_R_with_error`` reports as the estimate; on an axis too coarse
to sample the density's fastest fringe both values alias, the difference
bounds nothing, and the estimate is inf.  ``suggested_grid`` returns grids
whose half grid already resolves the density on each axis, so the
estimate is what says they were fine enough.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cascade import InputError, TransferMatrix, ZeroBaselineError, combo_dot
from .spectra import JointSpectrum

__all__ = [
    "GridSpec",
    "GridTooLargeError",
    "NonFiniteDensityError",
    "UnderflowedWeightsError",
    "MAX_NODES_PER_AXIS",
    "integrate_R",
    "integrate_R_with_error",
    "suggested_grid",
]

#: Nodes of the shorter axis per block of the row-block order: four complex
#: blocks of 32 x 256 nodes take 512 KiB, which stays in cache and is
#: reused from the heap on every call.
ROW_BLOCK = 32
#: Complex elements in each node block of the Gram form: 124 KiB, under
#: glibc's default 128 KiB mmap threshold, so the blocks of U and V come
#: from the heap instead of being page-faulted per call.
_GRAM_BLOCK_ELEMENTS = 124 * 1024 // 16
#: Bytes per (W+, W-) node the node cap charges: three complex N x N
#: fields, N the count of one axis.  ``integrate_R`` holds an (N, D) phase
#: table and (N, K) factors per axis, D <= 4 K distinct delay rows, and
#: either four ``ROW_BLOCK`` x N blocks or node blocks of U and V and
#: 2K^2 x 2K^2 Grams, so the cap over-states its memory.
_BYTES_PER_NODE = 3 * 16
#: Memory budget for those fields (1 GiB); an axis past the cap it sets is
#: refused before anything is allocated.
GRID_MEMORY_BUDGET = 1 << 30
MAX_NODES_PER_AXIS = math.isqrt(GRID_MEMORY_BUDGET // _BYTES_PER_NODE)
#: -ln of the smallest normal double: exp(-x^2) stays normal up to this x^2.
_X2_MAX = -math.log(np.finfo(float).tiny)
#: Widest trapezoid step, in linewidths.  Some node other than the centre
#: lies within one step of it, where the intensity on each axis is about
#: exp(-step^2 / 2), so the joint weight there stays normal while step^2 is
#: at most ``_X2_MAX``.  Wider steps are refused before any intensity is
#: evaluated; far enough past it every weight underflows to 0.
_MAX_STEP_SIGMAS = math.sqrt(_X2_MAX)
#: ``suggested_grid``'s half-width in linewidths.
_SUGGESTED_EXTENT = 8.0
#: How far, in inverse linewidths, the half grid's first alias must lie
#: past the density's fastest fringe: its aliasing term is then about
#: exp(-8^2 / 2) = e^-32.
_ALIAS_MARGIN = 8.0
#: Fewest intervals of a suggested grid's half grid: 32, so that N >= 65
#: and the half grid's 33 nodes clear the 32-node floor.
_MIN_HALF_INTERVALS = 32


class GridTooLargeError(InputError):
    """Grid past the node cap that the memory budget sets."""


class NonFiniteDensityError(InputError, FloatingPointError):
    """The density is not finite on the grid: its inputs overflow the float range."""


class UnderflowedWeightsError(InputError, FloatingPointError):
    """Every joint quadrature weight underflows to 0, so nothing normalises R."""


def _too_large(nodes) -> GridTooLargeError:
    """The refusal of a grid of ``nodes`` per axis, sized in floats.

    ``nodes`` may be an int or a float of any size, infinity included; the
    memory in the message is inf past the float range rather than an
    ``OverflowError``.
    """
    nodes = math.inf if nodes > sys.float_info.max else float(nodes)
    gib = nodes * nodes * _BYTES_PER_NODE / 2**30
    return GridTooLargeError(
        f"{nodes:.6g} nodes per axis would need {gib:.3g} GiB of quadrature "
        f"temporaries; at most {MAX_NODES_PER_AXIS} fit the "
        f"{GRID_MEMORY_BUDGET >> 30} GiB budget")


@dataclass(frozen=True)
class GridSpec:
    """Trapezoid grid over +-extent_sigmas linewidths of each axis.

    ``nodes`` is the node count of the W+ axis and of the W- axis: one int
    sets both, a pair (N+, N-) each; it is held as the pair.
    """

    nodes: tuple
    extent_sigmas: float = 8.0

    def __post_init__(self):
        counts = tuple(self.nodes) if isinstance(self.nodes, (tuple, list)) \
            else (self.nodes, self.nodes)
        if len(counts) != 2:
            raise ValueError(f"nodes must be one count or a pair, got {self.nodes!r}")
        object.__setattr__(self, "nodes", counts)
        if min(counts) < 32:
            raise ValueError("nodes per axis must be >= 32")
        if max(counts) > MAX_NODES_PER_AXIS:
            raise _too_large(max(counts))
        if self.extent_sigmas < 5:
            raise ValueError("extent_sigmas must be >= 5 for the trapezoid rule")
        step = 2.0 * self.extent_sigmas / (min(counts) - 1)
        if step > _MAX_STEP_SIGMAS:
            raise ValueError(
                f"extent_sigmas {self.extent_sigmas:g} over {min(counts)} "
                f"nodes spaces them {step:.3g} linewidths apart; past "
                f"{_MAX_STEP_SIGMAS:.3g} the quadrature weights underflow")

    @property
    def nodes_per_axis(self) -> int:
        """The larger of the two axes' node counts."""
        return max(self.nodes)


def _axis(nodes: int, half_width: float):
    """Trapezoid nodes and weights of one axis over +-half_width.

    The nodes are ``np.linspace(-half_width, half_width, nodes)`` by its own
    formula, arange times step minus the half-width with the last node set
    to it, which gives the same bits without its dispatch; linspace itself
    runs only where that step underflows to 0, which it treats apart.
    """
    points = np.arange(nodes, dtype=float)
    step = (half_width + half_width) / (nodes - 1)
    if step:
        points *= step
        points -= half_width
        points[-1] = half_width
    else:
        points = np.linspace(-half_width, half_width, nodes)
    step = points[1] - points[0]
    weights = np.full(nodes, step)
    weights[0] = weights[-1] = step / 2.0
    return points, weights


#: Axes ``_axis_data`` keeps.  An entry holds two arrays of at most
#: ``MAX_NODES_PER_AXIS`` floats, so at most 2 x 4729 x 8 B = 74 KiB, and the
#: whole cache at most 9.2 MiB.
_AXIS_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_AXIS_CACHE_SIZE, typed=True)
def _axis_data(nodes: int, half_width: float, profile):
    """One axis of the grid, as every call on it reads it: its trapezoid
    nodes, sqrt(j), and the sums of j over all nodes and over the nodes of
    even index, j being ``profile``'s intensity times the node weights.

    None of it depends on the delays, so it is built once per (node count,
    half-width, profile) and kept in a bounded LRU cache; the arrays are
    read-only, as every caller shares them.  ``profile`` is hashable, such
    as a frozen ``SpectralProfile``, and equal profiles have equal
    intensities.  Keys of different types are kept apart, so a node count
    that ``_axis`` refuses is refused on every call.
    """
    points, weights = _axis(nodes, half_width)
    j = profile.intensity(points) * weights
    root = np.sqrt(j)
    for array in (points, root):
        array.flags.writeable = False
    return points, root, j.sum(), j[::2].sum()


def _cis(phase):
    """exp(i * phase) of a real array, as one cosine and one sine."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _phases(tm: TransferMatrix, taus):
    """Amplitudes, distinct delay combinations u and the slots' index into u.

    ``TransferMatrix.phase_plan``, built once per matrix, holds the A, B, C
    and D amplitudes zero-padded to the widest, K terms, as a (4, K) array,
    the D distinct delay rows among those 4 K slots, and each slot's row as
    a (4, K) index.  The rows become the (D,) u in one ``combo_dot``; equal
    rows give equal values, so slot (e, k)'s combination is
    ``u[index[e, k]]`` to the bit.
    """
    amps, rows, index = tm.phase_plan
    return amps, combo_dot(rows, taus), index


def _fastest_delay(u) -> float:
    """u_max, the largest absolute delay combination of ``_phases``' u.

    The density's fastest fringe along either axis is 2 u_max (see
    ``suggested_grid``).
    """
    return float(np.abs(u).max(initial=0.0))


def _factors(amps, u, index, pump: float, w_plus, w_minus):
    """Factor stacks whose products are the A, B, C and D grid fields.

    Each exponential is separable across the two axes, so entry e's field
    on the (W_plus, W_minus) grid, at omega = wp/2 + (W+ +- W-)/2, is the
    rank-K product ``plus[e] @ minus[e]``: ``plus[e]`` is (N+, K) and
    carries the amplitudes and the pump carrier, ``minus[e]`` is (K, N-).
    The entries are zero-padded to one K (``_phases``), so one batched
    product forms a block of all four fields.  The cosines and sines are
    taken once per distinct combination of ``_phases``' u, in two tables,
    cis(-w+ u / 2) of shape (N+, D) and cis(-u w- / 2) of shape (D, N-),
    which ``index`` gathers into the slots; C and D take W- with the
    opposite sign, so their halves of ``minus`` are conjugated, cis(x)
    being conj cis(-x).  Phases that overflow come out NaN, silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        carrier = amps * _cis(-0.5 * pump * u)[index]
        plus_table = _cis((-0.5 * w_plus)[:, None] * u)
        minus = _cis((-0.5 * u)[:, None] * w_minus)[index]
    plus = np.multiply(plus_table[:, index].transpose(1, 0, 2), carrier[:, None, :],
                       out=np.empty((4, len(w_plus), amps.shape[1]), dtype=complex))
    np.conjugate(minus[2:], out=minus[2:])
    return plus, minus


def _row_block_sum(plus, minus):
    """Weighted density sums with the fields formed ``ROW_BLOCK`` rows at a time.

    The rows are ``plus``'s nodes and the columns ``minus``'s; the
    transposed stacks give the transposed grid, whose sums are the same.
    All four fields of a block come from one batched product, and the
    squared modulus of A D + B C is summed, so no N+ x N- array is held.
    Returns the sum over the grid and over its even rows and columns:
    ``ROW_BLOCK`` is even, so a block's even rows are the grid's.
    """
    rows, cols = plus.shape[1], minus.shape[2]
    fields = np.empty((4, min(ROW_BLOCK, rows), cols), dtype=complex)
    total = half = 0.0
    for start in range(0, rows, ROW_BLOCK):
        a, b, c, d = np.matmul(plus[:, start:start + ROW_BLOCK], minus,
                               out=fields[:, :rows - start])
        a *= d
        b *= c
        a += b
        total += np.vdot(a, a).real
        even = a[::2, ::2]
        half += np.vdot(even, even).real
    return total, half


#: Factor pairs whose face-split products make the amplitude: A with D,
#: then B with C.
_PAIRS = ((0, 3), (1, 2))


def _face_split(chunk, conjugate_left: bool, rows, conj):
    """The face-split rows of a (4, n, K) chunk of factors, as two operands.

    Row i holds the products of A's factors with D's, then B's with C's, at
    the chunk's node i; they and their conjugates are written into the
    first n rows of ``rows`` and ``conj``.  Returns (left, right) such that
    left.T @ right is the chunk's Gram, conj(F)^T F when ``conjugate_left``
    and F^T conj(F) otherwise.
    """
    count = chunk.shape[1]
    for pair, (first, second) in enumerate(_PAIRS):
        np.multiply(chunk[first, :, :, None], chunk[second, :, None, :],
                    out=rows[:count, pair])
    flat = rows[:count].reshape(count, -1)
    np.conjugate(flat, out=conj[:count])
    return (conj[:count], flat) if conjugate_left else (flat, conj[:count])


def _grams(factors, conjugate_left: bool):
    """Even-node and all-node Grams of one axis's face-split rows.

    ``factors`` is (4, N, K), and F is its face-split matrix (N x 2K^2).
    The Grams are F^H F when ``conjugate_left`` (the W+ axis's U^H U) and
    F^T conj(F) otherwise (V V^H, the W- axis's V being F^T).  F is formed
    in chunks of at most ``_GRAM_BLOCK_ELEMENTS`` elements: one chunk
    when the whole axis fits, whose even and odd rows then go to their
    Grams by two products; otherwise the nodes of even index, then those
    of odd index, a chunk at a time.
    """
    nodes, width = factors.shape[1:]
    rank = 2 * width * width
    block = max(1, _GRAM_BLOCK_ELEMENTS // rank)
    rows = np.empty((min(block, nodes), 2, width, width), dtype=complex)
    conj = np.empty((len(rows), rank), dtype=complex)
    grams = np.empty((2, rank, rank), dtype=complex)  # even, then odd nodes
    if nodes <= block:
        left, right = _face_split(factors, conjugate_left, rows, conj)
        for parity in (0, 1):
            np.matmul(left[parity::2].T, right[parity::2], out=grams[parity])
    else:
        part = np.empty((rank, rank), dtype=complex)
        for parity in (0, 1):
            side = factors[:, parity::2]
            for start in range(0, side.shape[1], block):
                left, right = _face_split(side[:, start:start + block],
                                          conjugate_left, rows, conj)
                np.matmul(left.T, right, out=part if start else grams[parity])
                if start:
                    grams[parity] += part
    grams[1] += grams[0]
    return grams  # even nodes, all nodes


def _gram_sum(plus, minus):
    """Weighted density sums as tr(U^H U . V V^H), from two R x R Grams.

    The amplitude A D + B C is U @ V with R = 2K^2: row n of U holds the
    face-split products of the W+ factors (A with D, then B with C) at
    node n, column m of V the same of the W- factors.  Its squared
    Frobenius norm is the sum over the two Grams, and the same sum over
    the even-node Grams is the even-row, even-column share.  Returns both.
    """
    plus_grams = _grams(plus, True)
    minus_grams = _grams(minus.transpose(0, 2, 1), False)
    return (np.vdot(minus_grams[1], plus_grams[1]).real,
            np.vdot(minus_grams[0], plus_grams[0]).real)


def _contract(plus, minus):
    """The weighted density sums in the cheaper order for the grid and K.

    The row blocks cost about N+ N- K and the Gram form about
    (N+ + N-) K^4.  Timed on one BLAS thread at K = 2, 4 and 8 over grids
    of 65 to 801 nodes per axis, the Gram form was the faster once
    K^3 (N+ + N-) <= 2 N+ N- (within the timing noise near the line),
    which is K^3 <= N on a square grid, so that is the rule.  The row
    blocks run along the shorter axis: fewer, wider blocks measured 15-25 %
    faster than blocks along the longer one at 10:1 grids.
    """
    width, n_plus, n_minus = plus.shape[2], plus.shape[1], minus.shape[2]
    if width ** 3 * (n_plus + n_minus) <= 2 * n_plus * n_minus:
        return _gram_sum(plus, minus)
    if n_plus > n_minus:  # the transposed grid, whose rows are the W- nodes
        return _row_block_sum(minus.transpose(0, 2, 1), plus.transpose(0, 2, 1))
    return _row_block_sum(plus, minus)


def integrate_R_with_error(tm: TransferMatrix, js: JointSpectrum, taus,
                           grid: GridSpec):
    """``integrate_R``'s value and its half-grid error estimate, as a pair.

    Each axis gets its own nodes, weights and factor stack at its own node
    count.  The nodes, the square roots of the weighted intensities and
    their sums are read from ``_axis_data``'s bounded cache, built on the
    first call on that axis; the phases, the factor stacks and their
    contraction are formed per call.  On a grid odd on both axes the
    estimate is |R_N - R_half|, R_half being the value on the nodes of even
    index of each axis, summed in the same contraction.  The difference measures the error only once
    each axis samples the density's fastest fringe, 2 u_max, with its first
    alias past it: pi (N_a - 1) / E >= 2 sigma_a u_max on both axes, E the
    extent and sigma_a the axis's linewidth (``suggested_grid``'s bound for
    the full grid at zero margin).  On a coarser axis both rules fold the
    fringes back, their difference can cancel while each is far off, and
    the estimate is inf; so it is when only the half grid's weights
    underflow.  A grid with an even axis holds no half grid and reports
    None.  A matrix whose large-delay constant is 0 is refused with
    ``ZeroBaselineError``, weights that all underflow with
    ``UnderflowedWeightsError``, a non-finite density with
    ``NonFiniteDensityError``.
    """
    if len(taus) != tm.n_delays:
        raise ValueError(f"expected {tm.n_delays} delays, got {len(taus)}")
    sym = int(js.symmetry)
    constant = tm.large_delay_constant(sym)
    if constant == 0.0:
        raise ZeroBaselineError("cascade has zero asymptotic coincidence baseline")
    sigmas = (js.plus.sigma, js.minus.sigma)
    (wp_nodes, root_plus, plus_sum, plus_even), \
        (wm_nodes, root_minus, minus_sum, minus_even) = (
            _axis_data(nodes, grid.extent_sigmas * profile.sigma, profile)
            for nodes, profile in zip(grid.nodes, (js.plus, js.minus)))
    pump = js.pump_frequency

    weights = float(plus_sum * minus_sum)
    if weights == 0.0:
        raise UnderflowedWeightsError(
            f"every quadrature weight underflows to 0 at sigma_plus "
            f"{js.plus.sigma:g} and sigma_minus {js.minus.sigma:g}")

    amps, u, index = _phases(tm, taus)
    plus, minus = _factors(amps, u, index, pump, wp_nodes, wm_nodes)
    root_plus = root_plus[:, None]
    plus[0] *= root_plus
    plus[1] *= sym * root_plus
    minus[:2] *= root_minus

    numerator, half = _contract(plus, minus)
    # any non-finite density value makes the sum non-finite
    if not math.isfinite(numerator):
        delays = ", ".join(f"{t:g}" for t in taus)
        raise NonFiniteDensityError(
            f"non-finite coincidence density at pump frequency {pump:g} "
            f"and delays ({delays})")

    value = float(numerator) / (constant * weights)
    if any(nodes % 2 == 0 for nodes in grid.nodes):
        return value, None
    fastest = 2.0 * _fastest_delay(u)
    if any(math.pi * (nodes - 1) / grid.extent_sigmas < sigma * fastest
           for nodes, sigma in zip(grid.nodes, sigmas)):
        return value, math.inf
    half_norm = constant * float(plus_even * minus_even)
    if half_norm == 0.0:
        return value, math.inf
    return value, abs(value - float(half) / half_norm)


def integrate_R(tm: TransferMatrix, js: JointSpectrum, taus,
                grid: GridSpec) -> float:
    """Normalized coincidence probability by 2D quadrature of the density.

    The raw integral is divided by the large-delay baseline (the same
    asymptotic constant the closed-form engine normalizes with) so values
    are directly comparable across backends.  The joint weights j+ j- are
    an outer product of non-negative vectors, so their square roots fold
    into the A and B factors: the weighted amplitude sqrt(j+ j-) (A D +- B C)
    has the weighted density as its squared modulus.  The grid has N+ nodes
    on the W+ axis and N- on the W- axis.  The sum is contracted in the
    Gram form when K^3 (N+ + N-) <= 2 N+ N-, K being the entries'
    zero-padded term width, and in ``ROW_BLOCK`` blocks of the shorter
    axis otherwise: the Gram form's work grows as (N+ + N-) K^4, the row
    blocks' as N+ N- K.  ``integrate_R_with_error`` also returns the
    value's half-grid error estimate.
    """
    return integrate_R_with_error(tm, js, taus, grid)[0]


def suggested_grid(tm: TransferMatrix, js: JointSpectrum, taus) -> GridSpec:
    """Odd trapezoid grid whose half grid resolves the fastest fringe on each axis.

    With step h the trapezoid rule integrates f up to its aliases, the sum
    over k != 0 of f's Fourier transform at 2 pi k / h.  Along axis a the
    weighted density is a Gaussian of that axis's linewidth sigma_a (times
    a polynomial for an odd profile) times fringes exp(i w W_a): each
    factor of the amplitude turns at half a delay combination, so the
    amplitude's rates reach u_max, the largest absolute combination in the
    entries, and its squared modulus's |w| <= 2 u_max on either axis.  Such
    a term's transform is a Gaussian of width 1/sigma_a centred on w, so
    the first alias is about exp(-(sigma_a (2 pi / h - 2 u_max))^2 / 2).
    Asking the axis's half grid, of M_a nodes and step
    h = 2 E sigma_a / (M_a - 1) over +-E sigma_a, for
    sigma_a (2 pi / h - 2 u_max) >= 8 puts that term near e^-32:

        M_a - 1 >= (2 sigma_a u_max + 8) E / pi,

    with E = 8.  Each axis gets the N_a = 2 M_a - 1 nodes that nest its
    half grid, with twice the margin, and M_a - 1 is at least 32, so
    N_a >= 65.  The slope, 32 sigma_a u_max / pi (about 10.2 sigma_a
    u_max) nodes, is that of four nodes per fringe cycle over the axis's
    window, so an axis 10x narrower than the other needs about a tenth of
    its nodes, down to the 65-node floor.  Each count is formed in floats
    and refused with ``GridTooLargeError`` past the node cap, infinity
    included, before it becomes an int.
    """
    u_max = _fastest_delay(_phases(tm, taus)[1])
    counts = []
    for sigma in (js.plus.sigma, js.minus.sigma):
        intervals = max((2.0 * sigma * u_max + _ALIAS_MARGIN) * _SUGGESTED_EXTENT
                        / math.pi, _MIN_HALF_INTERVALS)
        nodes = 2.0 * intervals + 1.0
        if not nodes <= MAX_NODES_PER_AXIS:  # also refuses inf and nan
            raise _too_large(nodes)
        counts.append(2 * math.ceil(intervals) + 1)
    return GridSpec(tuple(counts), _SUGGESTED_EXTENT)
