"""Biphoton joint-spectrum models in collective frequency coordinates.

The joint spectral amplitude is taken factorable, ``f(w_s, w_i) =
f_plus(W_plus) * f_minus(W_minus)`` with ``W_plus = W_s + W_i`` and
``W_minus = W_s - W_i`` the sum/difference detunings from half the pump
frequency.  All frequencies are expressed in units of the sum linewidth
(so ``sigma_plus = 1`` in canonical configurations) and delays in its
inverse.

Everything downstream is written in terms of two normalized correlation
functions of the marginal intensities:

* ``g_minus(tau) = minus.corr(tau)`` -- slow envelope set by the
  difference-frequency linewidth,
* ``g_plus(tau) = cos(pump_frequency * tau) * plus.corr(tau)`` -- the same
  for the sum frequency, carrying the pump oscillation
  (``JointSpectrum.carrier``).

This module alone states what the two functions are: their values
(``SpectralProfile.corr`` and ``JointSpectrum.carrier``), the |tau| from
which a factor is exactly 0 (``SpectralProfile.zero_from``) and the peak of
a product of the two along a line (``corr_product_peaks``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProfileKind",
    "ExchangeSymmetry",
    "CorrelationClass",
    "SpectralProfile",
    "JointSpectrum",
    "correlation_class",
]


#: Cap on (sigma tau)^2 in corr.  exp(-x/2) is exactly 0 from x =
#: ``_EXP_ZERO`` on, so exp(-x/2) is 0.0 and (1 - x) * exp(-x/2) is -0.0 at
#: and beyond the cap whether x is capped or not; only an infinite x, which
#: gave NaN, changes.
_HERMITE_CAP = 1500.0
#: exp(-x/2) is exactly 0.0 from this x on, and subnormal from about 1417;
#: corr does not call exp on the lanes that give 0.0, and
#: ``SpectralProfile.zero_from`` is the |tau| where x reaches it.
_EXP_ZERO = 1491.0
#: Array size from which corr looks for underflowed lanes: skipping their
#: exp repays the look from about here (at 512 lanes it did not, whether
#: half of them underflowed or none).  ``JointSpectrum.carrier`` skips
#: the cosine of lanes whose corr is 0 from the same size.
_MASKED_LANES = 1024


class ProfileKind(enum.Enum):
    GAUSSIAN = "gaussian"
    HERMITE_GAUSSIAN1 = "hermite_gaussian1"


class ExchangeSymmetry(enum.IntEnum):
    """Sign picked up by the JSA when signal and idler are swapped."""

    SYMMETRIC = 1
    ANTISYMMETRIC = -1


class CorrelationClass(enum.Enum):
    ANTI_CORRELATED = "anti-correlated"
    CORRELATED = "correlated"
    UNCORRELATED = "uncorrelated"


@dataclass(frozen=True)
class SpectralProfile:
    """One marginal amplitude profile, Gaussian or first Hermite-Gaussian.

    ``sigma`` is the intensity linewidth: the Gaussian amplitude is
    ``exp(-W^2 / 4 sigma^2)`` so the intensity is ``exp(-W^2 / 2 sigma^2)``.
    The Hermite-Gaussian option multiplies the same Gaussian by ``W`` and
    is the minimal odd (antisymmetric) amplitude.
    """

    kind: ProfileKind
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def is_odd(self) -> bool:
        return self.kind is ProfileKind.HERMITE_GAUSSIAN1

    @property
    def zero_from(self) -> float:
        """|tau| from which ``corr(tau)`` is exactly +-0: (sigma tau)^2
        reaches ``_EXP_ZERO``, with a margin of 1e-6 that covers the
        rounding of this bound and of corr's clamp, scale and square."""
        return math.sqrt(_EXP_ZERO) / self.sigma * (1 + 1e-6)

    def amplitude(self, omega):
        """Amplitude f(W), peak-normalized for the Gaussian case."""
        omega = np.asarray(omega, dtype=float)
        gauss = np.exp(-(omega**2) / (4.0 * self.sigma**2))
        if self.kind is ProfileKind.GAUSSIAN:
            return gauss
        return omega * gauss

    def intensity(self, omega):
        """Marginal intensity F(W) = |f(W)|^2 (even in W for both kinds)."""
        a = self.amplitude(omega)
        return a * a

    def corr(self, tau):
        """Normalized Fourier transform of the intensity at delay tau.

        Gaussian: exp(-sigma^2 tau^2 / 2).
        Hermite-Gaussian: (1 - sigma^2 tau^2) exp(-sigma^2 tau^2 / 2),
        obtained by differentiating the Gaussian transform twice
        (W^2 under the integral maps to -d^2/dtau^2).  |tau| is clamped
        where (sigma tau)^2 reaches ``_HERMITE_CAP``, so the square never
        overflows and the value far out is 0, the limit.  On arrays of
        ``_MASKED_LANES`` and more that hold an x of ``_EXP_ZERO`` or more,
        exp runs only on the other lanes and the underflowed ones are set to
        the 0.0 it would give; exp works lane by lane, so every bit is kept.
        """
        x = np.minimum(np.abs(np.asarray(tau, dtype=float)),
                       math.sqrt(_HERMITE_CAP) / self.sigma)
        x *= self.sigma  # x is a new array: scaled and squared in place
        x *= x
        # A NaN lane makes the max NaN: such arrays take the plain path.
        if x.size >= _MASKED_LANES and x.max() >= _EXP_ZERO:
            gauss = np.zeros_like(x)
            np.exp(-0.5 * x, out=gauss, where=x < _EXP_ZERO)
        else:
            gauss = np.exp(-0.5 * x)
        if self.kind is ProfileKind.GAUSSIAN:
            return gauss
        return (1.0 - x) * gauss


@dataclass(frozen=True)
class JointSpectrum:
    """Factorable biphoton spectrum f_plus(W_plus) * f_minus(W_minus)."""

    plus: SpectralProfile
    minus: SpectralProfile
    symmetry: ExchangeSymmetry = ExchangeSymmetry.SYMMETRIC
    pump_frequency: float = 20.0

    def __post_init__(self):
        if self.symmetry is ExchangeSymmetry.ANTISYMMETRIC and not self.minus.is_odd:
            raise ValueError(
                "antisymmetric exchange requires an odd difference-frequency "
                "amplitude (hermite_gaussian1)"
            )
        if self.symmetry is ExchangeSymmetry.SYMMETRIC and self.minus.is_odd:
            raise ValueError(
                "symmetric exchange requires an even difference-frequency "
                "amplitude (gaussian)"
            )
        guard = 10.0 * max(self.plus.sigma, self.minus.sigma)
        if self.pump_frequency < guard:
            raise ValueError(
                f"pump_frequency {self.pump_frequency} too small for "
                f"linewidths (needs >= {guard}); full-line integrals would "
                "pick up negative-frequency contamination"
            )

    def carrier(self, x, corr_plus):
        """cos(pump_frequency * x), the carrier of g_plus at the arguments
        ``x``, an array whose ``plus.corr`` is ``corr_plus``: finite where,
        and only where, the phase is.

        On arrays of ``_MASKED_LANES`` and more, a lane where ``corr_plus``
        is 0 and the phase finite is left 0.0: its g_plus is +-0 whatever
        its cosine, and only the sign of that zero may differ.
        """
        phase = self.pump_frequency * x
        if phase.size < _MASKED_LANES or corr_plus.all():
            return np.cos(phase)
        return np.cos(phase, out=np.zeros_like(phase),
                      where=(corr_plus != 0) | ~np.isfinite(phase))


def corr_product_peaks(js: JointSpectrum, fix, slope):
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
    The roots of degree d are the eigenvalues of the rows' d x d companion
    matrices, one batched LAPACK call per degree above 1.  A degree-1 row,
    such as every row of two Gaussians, has the one root -s_0 / s_1, its
    companion matrix's one entry, which is taken as it is.  A row whose
    polynomial or companion column overflows the float range gets no
    roots and a NaN peak, so that it is never dropped.

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
        # The companion matrix's last column; at degree 1 it is the root,
        # +-0 as s_0 is.
        with np.errstate(over="ignore"):
            roots = -stationary[rows, :d] / stationary[rows, d:d + 1]
        if d > 1:
            bounded = np.isfinite(roots).all(axis=1)
            if not bounded.all():  # no roots, as for an overflowed row
                overflowed = np.flatnonzero(rows)[~bounded]
                finite[overflowed] = rows[overflowed] = False
                roots = roots[bounded]
            companion = np.zeros((len(roots), d, d))
            companion[:, 1:, :-1] = np.eye(d - 1)
            companion[:, :, -1] = roots
            roots = np.linalg.eigvals(companion).real
        candidates[rows, 1:d + 1] = t0[rows, None] + roots / scale[rows, None]
    x = fix[:, :, None] + slope[:, :, None] * candidates[:, None, :]
    peaks = np.abs(js.plus.corr(x[:, 0]) * js.minus.corr(x[:, 1])).max(axis=1)
    return np.where(vanishing, 0.0, np.where(finite, peaks, np.nan))


_RATIO_TOL = 1e-9


def correlation_class(sigma_plus: float, sigma_minus: float) -> CorrelationClass:
    """Classify frequency correlation by the linewidth ratio."""
    ratio = sigma_plus / sigma_minus
    if abs(ratio - 1.0) <= _RATIO_TOL:
        return CorrelationClass.UNCORRELATED
    if ratio < 1.0:
        return CorrelationClass.ANTI_CORRELATED
    return CorrelationClass.CORRELATED
