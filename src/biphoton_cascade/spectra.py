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
  for the sum frequency, carrying the pump oscillation (the carrier is
  applied by ``analytic.evaluate``).
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
#: corr does not call exp on the lanes that give 0.0, and the analytic walk
#: (``analytic._dead_rows``) skips an argument row over a block of a sweep
#: where x reaches this on every lane.
_EXP_ZERO = 1491.0
#: Array size from which corr looks for underflowed lanes: skipping their
#: exp repays the look from about here (at 512 lanes it did not, whether
#: half of them underflowed or none).  ``analytic`` skips their carrier
#: from the same size.
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


_RATIO_TOL = 1e-9


def correlation_class(sigma_plus: float, sigma_minus: float) -> CorrelationClass:
    """Classify frequency correlation by the linewidth ratio."""
    ratio = sigma_plus / sigma_minus
    if abs(ratio - 1.0) <= _RATIO_TOL:
        return CorrelationClass.UNCORRELATED
    if ratio < 1.0:
        return CorrelationClass.ANTI_CORRELATED
    return CorrelationClass.CORRELATED
