"""Interference traces and their analysis.

Generates delay sweeps of the normalized coincidence probability from
either backend, extracts upper/lower envelopes (analytically from the term
list, or numerically by Fourier demodulation around the pump carrier),
reconstructs the marginal spectral intensities from the envelope
sum/difference, and locates localized interference structures with their
visibilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic
from .analytic import AnalyticModel
from .cascade import InputError, TransferMatrix
from .quadrature import GridSpec, integrate_R_with_error, suggested_grid
from .spectra import JointSpectrum

__all__ = [
    "UndersampledCarrierError",
    "SweepWindowError",
    "NonFiniteTraceError",
    "MAX_SWEEP_SAMPLES",
    "SweepSpec",
    "Trace",
    "EnvelopePair",
    "AnalyticBackend",
    "QuadratureBackend",
    "sweep",
    "analytic_sweep",
    "envelopes_analytic",
    "envelopes_numeric",
    "reconstruct_spectra",
    "Structure",
    "detect_structures",
    "fit_gaussian_sigma",
]


class UndersampledCarrierError(InputError):
    """Trace samples the pump carrier too coarsely to demodulate."""


class SweepWindowError(InputError):
    """Sweep window ends before the envelopes have decayed, or holds no structure."""


class NonFiniteTraceError(InputError):
    """A trace holds NaN or infinity: its inputs overflow the float range."""


#: Sample-length float64 arrays a sweep's analysis may hold at once: a
#: sweep kept with both kinds of envelope, a reconstruction and a structure
#: map peaked at about 20 (traced at 10^6 samples).
_ARRAYS_PER_SAMPLE = 24
#: Memory budget for those arrays (1 GiB); longer sweeps are refused
#: before anything is allocated.
SWEEP_MEMORY_BUDGET = 1 << 30
MAX_SWEEP_SAMPLES = SWEEP_MEMORY_BUDGET // (8 * _ARRAYS_PER_SAMPLE)
#: Rounds of replica subtraction in ``_subtract_satellites``.
_SATELLITE_ITERATIONS = 3
#: ``detect_structures`` ignores deviations below this share of the largest.
_MIN_PROMINENCE = 0.02
#: ``fit_gaussian_sigma`` fits the points above this share of the peak.
_FIT_CUT = 1e-4
#: Its first damping, relative to the diagonal of J'J.  A step that lowers
#: the sum of squares divides the damping by 10; one that does not is
#: retried with 10 times the damping.
_FIT_DAMPING = 1e-3
#: The fit stops once the cosine between the residual and each Jacobian
#: column is at most _FIT_GTOL, once a step no longer moves the parameters
#: or needs more than _FIT_MAX_DAMPING, or after _FIT_MAX_STEPS steps.
_FIT_GTOL = 1e-12
_FIT_MAX_DAMPING = 1e20
_FIT_MAX_STEPS = 200


@dataclass(frozen=True)
class SweepSpec:
    """One swept delay over a uniform grid; all other delays fixed."""

    fixed: dict
    swept: int
    start: float
    stop: float
    samples: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if self.samples > MAX_SWEEP_SAMPLES:
            raise ValueError(
                f"{self.samples} samples exceed the sweep memory budget: at "
                f"most {MAX_SWEEP_SAMPLES} fit {SWEEP_MEMORY_BUDGET >> 30} GiB"
            )
        if not self.start < self.stop:
            raise ValueError("start must be < stop")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.samples)

    def delay_vectors(self, n_delays: int):
        return analytic._delay_vector(n_delays, self.fixed, self.swept, self.grid())


@dataclass(frozen=True)
class Trace:
    taus: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.taus) != len(self.values):
            raise ValueError("taus and values must have equal length")
        # Block by block, so the check holds no sample-length temporary.
        for start in range(0, len(self.values), analytic.CHUNK):
            if not np.isfinite(self.values[start:start + analytic.CHUNK]).all():
                raise NonFiniteTraceError("trace contains non-finite values")


@dataclass(frozen=True)
class EnvelopePair:
    upper: Trace
    lower: Trace

    def __post_init__(self):
        # The sweeps build both envelopes on one grid object: nothing to compare.
        if self.upper.taus is not self.lower.taus and not np.array_equal(
                self.upper.taus, self.lower.taus):
            raise ValueError("envelope traces must share the delay grid")
        # Block by block, so the check holds no sample-length temporary.
        lower, upper = self.lower.values, self.upper.values
        for start in range(0, len(upper), analytic.CHUNK):
            block = slice(start, start + analytic.CHUNK)
            if np.any(lower[block] > upper[block] + 1e-9):
                raise ValueError("lower envelope exceeds upper envelope")


@dataclass(frozen=True)
class AnalyticBackend:
    """Sweeps evaluated from a closed-form model (vectorized)."""

    model: AnalyticModel
    js: JointSpectrum


@dataclass(frozen=True)
class QuadratureBackend:
    """Sweeps evaluated point by point with the brute-force oracle."""

    tm: TransferMatrix
    js: JointSpectrum
    grid: Optional[GridSpec] = None


def sweep(backend, spec: SweepSpec) -> Trace:
    """Uniformly sample the normalized coincidence along one delay.

    An analytic sweep's meta is empty.  A quadrature sweep evaluates the
    oracle at each point of the sweep, on the backend's grid or else the
    point's ``suggested_grid``, and its meta holds ``max_error_estimate``,
    the largest half-grid estimate of its points (NaN if no grid had one),
    and ``grid_nodes``, the least and largest node count of each axis over
    its points' grids, as ((N+ least, N+ largest), (N- least, N- largest)).
    """
    if isinstance(backend, AnalyticBackend):
        return _analytic_sweep(backend.model, backend.js, spec,
                               values=True, envelopes=False)[0]
    tm, js = backend.tm, backend.js
    taus = spec.grid()
    rows = []
    for tau in taus:
        point = analytic._delay_vector(tm.n_delays, spec.fixed, spec.swept, tau)
        point_grid = backend.grid or suggested_grid(tm, js, point)
        rows.append((*integrate_R_with_error(tm, js, point, point_grid),
                     *point_grid.nodes))
    # dtype=float turns a None estimate into NaN
    values, estimates, *nodes = np.array(rows, dtype=float).T
    meta = {"max_error_estimate": float(np.fmax.reduce(estimates)),
            "grid_nodes": tuple((int(n.min()), int(n.max())) for n in nodes)}
    return Trace(taus, values, meta)


def envelopes_analytic(model: AnalyticModel, js: JointSpectrum,
                       spec: SweepSpec) -> EnvelopePair:
    """Carrier-free upper/lower envelopes from the term list.

    Terms without a sum-frequency argument pass through unchanged; every
    carrier-bearing term contributes +- its magnitude (the cosine replaced
    by the sign that maximizes or minimizes the sum).
    """
    return _analytic_sweep(model, js, spec, values=False, envelopes=True)[1]


def analytic_sweep(model: AnalyticModel, js: JointSpectrum, spec: SweepSpec):
    """``(Trace, EnvelopePair)`` from one walk over the terms: bit for bit the
    values of ``sweep(AnalyticBackend(model, js), spec)`` and of
    ``envelopes_analytic``, for about the cost of the sweep alone."""
    return _analytic_sweep(model, js, spec, values=True, envelopes=True)


def _analytic_sweep(model: AnalyticModel, js: JointSpectrum, spec: SweepSpec,
                    values: bool, envelopes: bool):
    """``(Trace, EnvelopePair)`` from one ``_walk`` with its two flags, None
    for a fold not run: every analytic trace and envelope pair is built here."""
    taus = spec.delay_vectors(model.n_delays)
    grid = taus[spec.swept]
    sampled, upper, lower = analytic._walk(model, js, taus, values, envelopes)
    return (None if sampled is None else Trace(grid, sampled),
            None if upper is None else EnvelopePair(Trace(grid, upper), Trace(grid, lower)))


def envelopes_numeric(trace: Trace, carrier_freq: float) -> EnvelopePair:
    """Envelope extraction by Fourier demodulation of a sampled trace.

    Splits the spectrum at half the carrier frequency into baseband and
    carrier band, takes the analytic-signal magnitude of the carrier band,
    and returns baseband +- magnitude.
    """
    step = trace.taus[1] - trace.taus[0]
    samples_per_period = 2.0 * np.pi / (carrier_freq * step)
    if samples_per_period <= 4.0:
        raise UndersampledCarrierError(
            f"undersampled carrier: {samples_per_period:.2f} samples per "
            "period (need > 4)"
        )
    n = len(trace.values)
    freq = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    spectrum = np.fft.fft(trace.values)
    cutoff = carrier_freq / 2.0
    baseband = np.fft.ifft(np.where(np.abs(freq) < cutoff, spectrum, 0)).real
    # One-sided carrier band doubled: analytic signal of the fringe part.
    carrier_band = np.where((freq >= cutoff), spectrum * 2.0, 0)
    magnitude = np.abs(np.fft.ifft(carrier_band))
    return EnvelopePair(
        upper=Trace(trace.taus, baseband + magnitude),
        lower=Trace(trace.taus, baseband - magnitude),
    )


def _dft_intensity(taus: np.ndarray, signal: np.ndarray):
    """Windowed DFT of a delay-domain signal -> (omega, intensity >= 0)."""
    n = len(signal)
    window = np.hanning(n)
    step = taus[1] - taus[0]
    spectrum = np.abs(np.fft.rfft(signal * window)) * step
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=step)
    return omega, spectrum


def _subtract_satellites(taus, signal, separation):
    """Isolate the central lobe of a signal with +-separation replicas.

    The replicas carry half the central amplitude; alternate between
    estimating the central lobe (replica-subtracted signal masked around
    zero) and rebuilding the replicas from that estimate.  Only the
    separation's magnitude matters, so a negative fixed delay works too.
    """
    separation = abs(separation)
    mask = np.abs(taus) <= separation / 2.0
    central = np.where(mask, signal, 0.0)
    for _ in range(_SATELLITE_ITERATIONS):
        left = np.interp(taus + separation, taus, central, left=0.0, right=0.0)
        right = np.interp(taus - separation, taus, central, left=0.0, right=0.0)
        central = signal - 0.5 * (left + right)
        central = np.where(np.abs(taus) <= separation, central, 0.0)
    return central


def reconstruct_spectra(env: EnvelopePair, satellite_delay: Optional[float]):
    """Marginal spectral intensities from the envelope sum/difference.

    The envelope sum isolates the difference-frequency content (as
    ``2 - S``), the difference isolates the sum-frequency content with
    satellite replicas at +-``satellite_delay``, which are stripped before
    the transform; None (or 0) strips nothing.  Returns ((omega_minus,
    minus_intensity), (omega_plus, plus_intensity)), each peak-normalized.
    A window in which either intensity is nowhere positive holds no
    structure to reconstruct from, and is refused with ``SweepWindowError``.
    """
    taus = env.upper.taus
    s_minus = env.upper.values + env.lower.values
    s_plus = env.upper.values - env.lower.values

    dip = 2.0 - s_minus
    edge = max(abs(dip[0]), abs(dip[-1]), abs(s_plus[0]), abs(s_plus[-1]))
    if edge > 1e-3:
        raise SweepWindowError(
            f"sweep window too short: envelope edge value {edge:.2e} > 1e-3"
        )
    central = (
        _subtract_satellites(taus, s_plus, satellite_delay)
        if satellite_delay
        else s_plus
    )

    spectra = _dft_intensity(taus, dip), _dft_intensity(taus, central)
    for name, (_, intensity) in zip(("difference", "sum"), spectra):
        if not intensity.max() > 0:
            raise SweepWindowError(f"sweep window holds no structure: the "
                                   f"{name}-frequency intensity is zero")
    return tuple((omega, intensity / intensity.max()) for omega, intensity in spectra)


def fit_gaussian_sigma(omega: np.ndarray, intensity: np.ndarray) -> float:
    """Linewidth of a peak-normalized spectral intensity exp(-W^2/2 s^2).

    Least squares of amp * exp(-W^2 / 2 s^2) over the points above 1e-4 of
    the peak, by Levenberg-Marquardt with the analytic Jacobian, from amp at
    the peak and s at the first |W| below half the peak (at least 1e-3).
    Returns |s|.  When the Jacobian at the result has rank < 2, the points
    do not fix both amp and s (s pinned at the 1e-3 floor leaves every point
    but W = 0 at zero), and it warns "Covariance of the parameters could not
    be estimated" as a ``UserWarning``.
    """
    peak = intensity.max()
    kept = intensity > _FIT_CUT * peak
    w2, y = omega[kept] ** 2, intensity[kept]
    start = max(abs(omega[np.argmax(intensity < 0.5 * peak)]), 1e-3)
    # A trial step may be NaN (from a singular system) or leave the float
    # range; its sum of squares then fails the comparison that refuses any
    # step not lowering it.
    with np.errstate(all="ignore"):
        amp, sig = _fit_gaussian(w2, y, np.float64(peak), np.float64(start))
        e = np.exp(w2 / (-2.0 * sig * sig))
        jac = np.column_stack([e, amp / sig**3 * e * w2])
    if np.linalg.matrix_rank(jac) < 2:
        warnings.warn("Covariance of the parameters could not be estimated",
                      UserWarning, stacklevel=2)
    return abs(sig)


def _fit_gaussian(w2, y, amp, sig):
    """Levenberg-Marquardt for amp * exp(-w2 / 2 sig^2) ~ y from (amp, sig)."""

    def residual(amp, sig):
        e = np.exp(w2 / (-2.0 * sig * sig))
        r = amp * e - y
        return e, r, r @ r

    e, r, cost = residual(amp, sig)
    damping = _FIT_DAMPING
    for _ in range(_FIT_MAX_STEPS):
        # J = [e, k e w2]; a step solves (J'J + damping D) step = -J'r, with D
        # the diagonal of J'J, 1 for a zero column.
        ew = e * w2
        k = amp / sig**3
        a11, a12, a22 = e @ e, k * (e @ ew), k * k * (ew @ ew)
        g1, g2 = e @ r, k * (ew @ r)
        if (g1 * g1 <= _FIT_GTOL**2 * a11 * cost
                and g2 * g2 <= _FIT_GTOL**2 * a22 * cost):
            break
        d1, d2 = a11 or 1.0, a22 or 1.0
        while True:
            b11, b22 = a11 + damping * d1, a22 + damping * d2
            det = b11 * b22 - a12 * a12
            trial = amp + (a12 * g2 - b22 * g1) / det, sig + (a12 * g1 - b11 * g2) / det
            if trial == (amp, sig) or damping > _FIT_MAX_DAMPING:
                return amp, sig
            # A step that more than doubles or halves s is refused: from a
            # start far too wide it would run out onto the flat s -> inf
            # side, or jump below the true s and stall on the flat s -> 0 side.
            if 0.5 * sig <= trial[1] <= 2.0 * sig:
                e_t, r_t, cost_t = residual(*trial)
                if cost_t < cost:
                    break
            damping *= 10.0
        (amp, sig), e, r, cost = trial, e_t, r_t, cost_t
        damping /= 10.0
    return amp, sig


@dataclass(frozen=True)
class Structure:
    center: float
    visibility: float
    overlapped: bool = False


def detect_structures(trace: Trace, baseline: float,
                      carrier_freq: Optional[float] = None):
    """Locate localized interference structures and their visibilities.

    A structure shows up either as a baseband shift of the mean away from
    the baseline (a dip or bump) or as a burst of carrier fringes; its
    visibility is the larger of the peak baseband deviation and the peak
    fringe amplitude, divided by the baseline, and the center is the
    deviation-weighted centroid.  ``carrier_freq`` enables demodulation
    for carrier-bearing traces; pass None for traces that are already
    baseband (e.g. the analytic envelope midline).
    """
    if carrier_freq is not None:
        env = envelopes_numeric(trace, carrier_freq)
        midline = 0.5 * (env.upper.values + env.lower.values)
        fringe = 0.5 * (env.upper.values - env.lower.values)
        deviation = np.maximum(np.abs(midline - baseline), fringe)
    else:
        deviation = np.abs(trace.values - baseline)
    noise = float(np.median(deviation)) * 1.4826
    threshold = max(3.0 * noise, _MIN_PROMINENCE * float(deviation.max()))
    active = deviation > threshold

    structures = []
    # Each run of active samples, as its [start, stop) edges.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], active, [False]))))
    for start, stop in edges.reshape(-1, 2):
        seg = slice(start, stop)
        weights = deviation[seg]
        center = float(np.sum(trace.taus[seg] * weights) / np.sum(weights))
        visibility = float(deviation[seg].max()) / baseline
        # Two deviation peaks inside one region indicate unresolved overlap.
        interior = deviation[seg]
        peaks = np.sum(
            (interior[1:-1] > interior[:-2]) & (interior[1:-1] >= interior[2:])
        ) if len(interior) > 2 else 1
        structures.append(Structure(center, visibility, overlapped=peaks > 1))
    return structures
