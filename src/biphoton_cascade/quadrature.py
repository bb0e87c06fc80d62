"""Brute-force numerical oracle for the coincidence probability.

Computes R(taus) by direct tensor-product quadrature of the coincidence
density over the sum/difference detunings, with the integration domain
extended to the full real plane (exact to spectral-tail accuracy given the
pump-frequency guard on the joint spectrum).  Deliberately independent of
the closed-form engine: nothing here knows about g functions or term
lists, only about evaluating the density on a grid.

Each entry's field is a rank-K product of per-axis factors, so the
weighted density sum can be contracted in two orders, and ``integrate_R``
picks the cheaper from the node count N per axis and the term width K:

* row blocks (K^3 > N): the four fields are formed ``ROW_BLOCK`` grid
  rows at a time and their squared combination summed, O(N^2 K);
* Gram form (K^3 <= N): the face-split (Khatri-Rao) factors U (N x 2K^2)
  and V (2K^2 x N) of the combined amplitude give the sum as
  tr(U^H U . V V^H), O(N K^4).

Either way a call's memory grows with N, not N^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cascade import TransferMatrix, combo_dot
from .spectra import JointSpectrum

__all__ = [
    "Rule",
    "GridSpec",
    "GridTooLargeError",
    "NonFiniteDensityError",
    "MAX_NODES_PER_AXIS",
    "integrate_R",
    "convergence_report",
    "suggested_grid",
]

#: Rows of the W+ axis per block of the row-block order (K^3 > N): four
#: complex blocks of 32 x 256 nodes take 512 KiB, which stays in cache and
#: is reused from the heap on every call.
ROW_BLOCK = 32
#: Bytes per (W+, W-) node the node cap charges: three complex N x N
#: fields.  ``integrate_R`` holds (N, K) factors and either four
#: ``ROW_BLOCK`` x N blocks or, when K^3 <= N, the N x 2K^2 factors U and V
#: and two 2K^2 x 2K^2 Grams, so the cap over-states its memory.
_BYTES_PER_NODE = 3 * 16
#: Memory budget for those fields (1 GiB); larger grids are refused before
#: anything is allocated.
GRID_MEMORY_BUDGET = 1 << 30
MAX_NODES_PER_AXIS = math.isqrt(GRID_MEMORY_BUDGET // _BYTES_PER_NODE)
#: -ln of the smallest normal double: exp(-x^2) stays normal up to this x^2.
#: Gauss-Hermite weights fall as exp(-x^2) towards the largest root x_max of
#: H_n, which the Airy asymptote sqrt(2n+1) - 1.85575 (2n+1)^(-1/6) gives to
#: within 0.002 at these sizes.  Rules whose x_max^2 passes it (371 nodes
#: and up) lose their outer weights to underflow, so they are refused
#: before they are built.
_X2_MAX = -math.log(np.finfo(float).tiny)
#: Widest trapezoid step, in linewidths.  Some node other than the centre
#: lies within one step of it, where the intensity on each axis is about
#: exp(-step^2 / 2), so the joint weight there stays normal while step^2 is
#: at most ``_X2_MAX``.  Wider steps are refused before any intensity is
#: evaluated; far enough past it every weight underflows to 0.
_MAX_STEP_SIGMAS = math.sqrt(_X2_MAX)
#: ``suggested_grid``'s half-width in linewidths, and its nodes per cycle
#: of the fastest fringe.
_SUGGESTED_EXTENT = 8.0
_POINTS_PER_CYCLE = 4.0


class GridTooLargeError(ValueError):
    """Grid past the node cap that the memory budget sets."""


class NonFiniteDensityError(FloatingPointError):
    """The density is not finite on the grid: its inputs overflow the float range."""


class Rule(enum.Enum):
    TRAPEZOID = "trapezoid"
    GAUSS_HERMITE = "gauss-hermite"


@dataclass(frozen=True)
class GridSpec:
    nodes_per_axis: int
    extent_sigmas: float = 8.0
    rule: Rule = Rule.TRAPEZOID

    def __post_init__(self):
        if self.nodes_per_axis < 32:
            raise ValueError("nodes_per_axis must be >= 32")
        if self.nodes_per_axis > MAX_NODES_PER_AXIS:
            gib = self.nodes_per_axis ** 2 * _BYTES_PER_NODE / 2**30
            raise GridTooLargeError(
                f"{self.nodes_per_axis} nodes per axis would need {gib:.3g} GiB "
                f"of quadrature temporaries; at most {MAX_NODES_PER_AXIS} fit "
                f"the {GRID_MEMORY_BUDGET >> 30} GiB budget"
            )
        if self.rule is Rule.TRAPEZOID:
            if self.extent_sigmas < 5:
                raise ValueError("extent_sigmas must be >= 5 for the trapezoid rule")
            step = 2.0 * self.extent_sigmas / (self.nodes_per_axis - 1)
            if step > _MAX_STEP_SIGMAS:
                raise ValueError(
                    f"extent_sigmas {self.extent_sigmas:g} over {self.nodes_per_axis} "
                    f"nodes spaces them {step:.3g} linewidths apart; past "
                    f"{_MAX_STEP_SIGMAS:.3g} the quadrature weights underflow")
        if self.rule is Rule.GAUSS_HERMITE:
            self._hermite  # builds the rule once and refuses unusable weights

    @cached_property
    def _hermite(self):
        """Gauss-Hermite (nodes, weights, exp(nodes^2)), computed once per grid.

        Rules whose compensated weights are zero or not finite are refused;
        those past ``_X2_MAX`` before they are built.
        """
        m = 2 * self.nodes_per_axis + 1
        usable = (math.sqrt(m) - 1.85575 * m ** (-1 / 6)) ** 2 <= _X2_MAX
        if usable:
            with np.errstate(all="ignore"):  # large rules under/overflow
                x, w = np.polynomial.hermite.hermgauss(self.nodes_per_axis)
                gauss_inverse = np.exp(x**2)
                compensated = w * gauss_inverse
            usable = np.all((compensated > 0) & np.isfinite(compensated))
        if not usable:
            raise ValueError(
                f"gauss-hermite weights at {self.nodes_per_axis} nodes are zero "
                "or not finite in double precision; use fewer nodes or the "
                "trapezoid rule"
            )
        return x, w, gauss_inverse


def _axis(grid: GridSpec, sigma: float):
    """Quadrature nodes/weights for one detuning axis.

    The weights absorb the Gaussian intensity decay in the Gauss-Hermite
    case: integrand values are multiplied by exp(x^2) so that profiles of
    the form polynomial * exp(-W^2 / 2 sigma^2) are integrated exactly.
    """
    if grid.rule is Rule.TRAPEZOID:
        half = grid.extent_sigmas * sigma
        nodes = np.linspace(-half, half, grid.nodes_per_axis)
        step = nodes[1] - nodes[0]
        weights = np.full(grid.nodes_per_axis, step)
        weights[0] = weights[-1] = step / 2.0
        return nodes, weights
    x, w, gauss_inverse = grid._hermite
    scale = math.sqrt(2.0) * sigma
    return scale * x, scale * w * gauss_inverse


def _cis(phase):
    """exp(i * phase) of a real array, as one cosine and one sine."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _factors(tm: TransferMatrix, taus, pump: float, w_plus, w_minus):
    """Factor stacks whose products are the A, B, C and D grid fields.

    Each exponential is separable across the two axes, so entry e's field
    on the (W_plus, W_minus) grid, at omega = wp/2 + (W+ +- W-)/2, is the
    rank-K product ``plus[e] @ minus[e]``: ``plus[e]`` is (N, K) and
    carries the amplitudes and the pump carrier, ``minus[e]`` is (K, N).
    The entries are zero-padded to one K, so one batched product forms a
    block of all four fields.  Phases that overflow come out NaN, silently.
    """
    entries = (tm.A, tm.B, tm.C, tm.D)
    width = max(len(entry.arrays[0]) for entry in entries)
    amps = np.zeros((4, width))
    u = np.zeros((4, width))
    for index, entry in enumerate(entries):
        entry_amps, combos = entry.arrays
        amps[index, :len(entry_amps)] = entry_amps
        u[index, :len(entry_amps)] = combo_dot(combos, taus)
    # C and D take W_minus with the opposite sign
    minus_sign = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        plus = _cis(u[:, None, :] * (-0.5 * w_plus)[:, None])
        plus *= (amps * _cis(-0.5 * pump * u))[:, None, :]
        minus = _cis((-0.5 * minus_sign) * u[:, :, None] * w_minus)
    return plus, minus


def _row_block_sum(plus, minus) -> float:
    """Weighted density sum with the fields formed ``ROW_BLOCK`` rows at a time.

    All four fields of a block come from one batched product, and the
    squared modulus of A D + B C is summed, so no N x N array is held.
    """
    rows, cols = plus.shape[1], minus.shape[2]
    fields = np.empty((4, min(ROW_BLOCK, rows), cols), dtype=complex)
    total = 0.0
    for start in range(0, rows, ROW_BLOCK):
        a, b, c, d = np.matmul(plus[:, start:start + ROW_BLOCK], minus,
                               out=fields[:, :rows - start])
        a *= d
        b *= c
        a += b
        total += np.vdot(a, a).real
    return total


def _gram_sum(plus, minus) -> float:
    """Weighted density sum as tr(U^H U . V V^H), from two R x R Grams.

    The amplitude A D + B C is U @ V with R = 2K^2: row n of U holds the
    face-split products of the W+ factors (A with D, then B with C) at
    node n, column m of V the same of the W- factors.  Its squared
    Frobenius norm is the sum over the two Grams.  Both axes have N nodes,
    so U^H fits V's buffer and V^H U's: the products and their conjugate
    transposes are written into those two buffers, and nothing else of
    size N x R is allocated.
    """
    nodes, width = plus.shape[1:]
    u = np.empty((nodes, 2, width, width), dtype=complex)
    v = np.empty((2, width, width, nodes), dtype=complex)
    u_flat, v_flat = u.reshape(nodes, -1), v.reshape(-1, nodes)
    pairs = ((0, 3), (1, 2))  # A with D, B with C
    for pair, (first, second) in enumerate(pairs):
        np.multiply(plus[first, :, :, None], plus[second, :, None, :], out=u[:, pair])
    plus_gram = np.conjugate(u_flat.T, out=v_flat) @ u_flat
    for pair, (first, second) in enumerate(pairs):
        np.multiply(minus[first, :, None, :], minus[second, None], out=v[pair])
    minus_gram = v_flat @ np.conjugate(v_flat.T, out=u_flat)
    return np.vdot(minus_gram, plus_gram).real


def integrate_R(tm: TransferMatrix, js: JointSpectrum, taus,
                grid: GridSpec) -> float:
    """Normalized coincidence probability by 2D quadrature of the density.

    The raw integral is divided by the large-delay baseline (the same
    asymptotic constant the closed-form engine normalizes with) so values
    are directly comparable across backends.  The joint weights j+ j- are
    an outer product of non-negative vectors, so their square roots fold
    into the A and B factors: the weighted amplitude sqrt(j+ j-) (A D +- B C)
    has the weighted density as its squared modulus.  Its sum is contracted
    in the Gram form when K^3 <= N, K being the entries' zero-padded term
    width and N the nodes per axis, and in ``ROW_BLOCK`` row blocks
    otherwise: the Gram form's work grows as N K^4, the row blocks' as
    N^2 K.
    """
    if len(taus) != tm.n_delays:
        raise ValueError(f"expected {tm.n_delays} delays, got {len(taus)}")
    wp_nodes, wp_weights = _axis(grid, js.plus.sigma)
    wm_nodes, wm_weights = _axis(grid, js.minus.sigma)
    pump = js.pump_frequency

    # the Gauss-Hermite weights from _axis already absorb the exp(x^2)
    # compensation, so both rules consume the plain intensities here
    j_plus = js.plus.intensity(wp_nodes) * wp_weights
    j_minus = js.minus.intensity(wm_nodes) * wm_weights

    sym = int(js.symmetry)
    plus, minus = _factors(tm, taus, pump, wp_nodes, wm_nodes)
    root_plus = np.sqrt(j_plus)[:, None]
    plus[0] *= root_plus
    plus[1] *= sym * root_plus
    minus[:2] *= np.sqrt(j_minus)

    width = plus.shape[2]
    contract = _gram_sum if width ** 3 <= len(wp_nodes) else _row_block_sum
    numerator = contract(plus, minus)
    # any non-finite density value makes the sum non-finite
    if not math.isfinite(numerator):
        delays = ", ".join(f"{t:g}" for t in taus)
        raise NonFiniteDensityError(
            f"non-finite coincidence density at pump frequency {pump:g} "
            f"and delays ({delays})")

    norm = tm.large_delay_constant(sym) * float(np.sum(j_plus) * np.sum(j_minus))
    return float(numerator) / norm


def convergence_report(tm: TransferMatrix, js: JointSpectrum, taus, grids):
    """Successive-refinement table: list of (grid, value, delta-to-previous)."""
    grids = list(grids)
    if len(grids) < 2:
        raise ValueError("need at least two grids for a convergence report")
    rows = []
    previous = None
    for grid in grids:
        value = integrate_R(tm, js, taus, grid)
        delta = None if previous is None else abs(value - previous)
        rows.append((grid, value, delta))
        previous = value
    return rows


def suggested_grid(tm: TransferMatrix, js: JointSpectrum, taus) -> GridSpec:
    """Trapezoid grid sized to resolve the fastest delay-induced fringe.

    The density oscillates in each detuning no faster than the largest
    absolute delay combination appearing in the matrix entries; node count
    follows from Nyquist with margin.
    """
    u_max = max(float(np.abs(combo_dot(entry.arrays[1], taus)).max(initial=0.0))
                for entry in (tm.A, tm.B, tm.C, tm.D))
    # Exponent differences in the squared density reach 2 * u_max, and the
    # detuning enters with a factor 1/2: fringe rate u_max per axis unit.
    sigma = max(js.plus.sigma, js.minus.sigma)
    window = 2.0 * _SUGGESTED_EXTENT * sigma
    nodes = int(window * u_max / (2.0 * math.pi) * _POINTS_PER_CYCLE) + 64
    return GridSpec(max(nodes, 256), _SUGGESTED_EXTENT, Rule.TRAPEZOID)
