"""Brute-force numerical oracle for the coincidence probability.

Computes R(taus) by direct tensor-product quadrature of the coincidence
density over the sum/difference detunings, with the integration domain
extended to the full real plane (exact to spectral-tail accuracy given the
pump-frequency guard on the joint spectrum).  Deliberately independent of
the closed-form engine: nothing here knows about g functions or term
lists, only about evaluating the density on a grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cascade import ExpSum, TransferMatrix, combo_dot
from .spectra import JointSpectrum

__all__ = [
    "Rule",
    "GridSpec",
    "GridTooLargeError",
    "MAX_NODES_PER_AXIS",
    "integrate_R",
    "convergence_report",
    "suggested_grid",
]

#: Bytes per (W+, W-) node of the N x N temporaries integrate_R holds at
#: once: at most three complex fields.
_BYTES_PER_NODE = 3 * 16
#: Memory budget for those temporaries (1 GiB); larger grids are refused
#: before anything is allocated.
GRID_MEMORY_BUDGET = 1 << 30
MAX_NODES_PER_AXIS = math.isqrt(GRID_MEMORY_BUDGET // _BYTES_PER_NODE)
#: Gauss-Hermite weights are compensated by exp(x^2) at every node.  The
#: squared roots of H_n sum to n(n-1)/2, so the largest is at least
#: (n-1)/2, and beyond this many nodes exp(x_max^2) must overflow: such
#: rules are refused before they are built.
_MAX_HERMITE_NODES = int(2 * math.log(np.finfo(float).max) + 1)
#: ``suggested_grid``'s half-width in linewidths, and its nodes per cycle
#: of the fastest fringe.
_SUGGESTED_EXTENT = 8.0
_POINTS_PER_CYCLE = 4.0


class GridTooLargeError(ValueError):
    """Grid whose N x N temporaries would exceed the memory budget."""


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
        if self.rule is Rule.TRAPEZOID and self.extent_sigmas < 5:
            raise ValueError("extent_sigmas must be >= 5 for the trapezoid rule")
        if self.rule is Rule.GAUSS_HERMITE:
            self._hermite  # builds the rule once and refuses unusable weights

    @cached_property
    def _hermite(self):
        """Gauss-Hermite (nodes, weights, exp(nodes^2)), computed once per grid.

        Rules whose compensated weights are zero or not finite are refused;
        those beyond ``_MAX_HERMITE_NODES`` before they are built.
        """
        usable = self.nodes_per_axis <= _MAX_HERMITE_NODES
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


def _entry_field(entry: ExpSum, taus, pump: float, w_plus, w_minus, minus_sign):
    """Entry values on the (W_plus, W_minus) grid for omega = wp/2 + (W+ +- W-)/2.

    Each exponential is separable across the two axes, so the 2D field is
    the rank-K product P diag(amp * carrier) M^T, one complex GEMM.
    """
    amps, combos = entry.arrays
    u = combo_dot(combos, taus)
    plus = np.exp(-0.5j * np.outer(w_plus, u))
    plus *= amps * np.exp(-0.5j * pump * u)
    minus = np.exp((-0.5j * minus_sign) * np.outer(w_minus, u))
    return plus @ minus.T


def integrate_R(tm: TransferMatrix, js: JointSpectrum, taus,
                grid: GridSpec) -> float:
    """Normalized coincidence probability by 2D quadrature of the density.

    The raw integral is divided by the large-delay baseline (the same
    asymptotic constant the closed-form engine normalizes with) so values
    are directly comparable across backends.  The joint weights are an
    outer product, so the integral contracts as j+^T density j- without
    forming them.
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
    amp = _entry_field(tm.A, taus, pump, wp_nodes, wm_nodes, +1)
    amp *= _entry_field(tm.D, taus, pump, wp_nodes, wm_nodes, -1)
    swapped = _entry_field(tm.B, taus, pump, wp_nodes, wm_nodes, +1)
    swapped *= _entry_field(tm.C, taus, pump, wp_nodes, wm_nodes, -1)
    if sym > 0:
        amp += swapped
    else:
        amp -= swapped
    del swapped  # before the real arrays, so at most three N x N fields live
    density = np.square(amp.real)
    density += np.square(amp.imag)
    if not np.all(np.isfinite(density)):
        raise FloatingPointError("non-finite coincidence density on the grid")

    numerator = float(j_plus @ density @ j_minus)
    norm = tm.large_delay_constant(sym) * float(np.sum(j_plus) * np.sum(j_minus))
    return numerator / norm


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
