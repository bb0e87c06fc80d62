"""Interference traces and their analysis.

Generates delay sweeps of the normalized coincidence probability from
either backend, extracts upper/lower envelopes (analytically from the term
list, or numerically by Fourier demodulation around the pump carrier),
reconstructs the marginal spectral intensities from the envelope
sum/difference, and locates localized interference structures with their
visibilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic
from .analytic import AnalyticModel
from .cascade import TransferMatrix
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
    "envelopes_analytic",
    "envelopes_numeric",
    "reconstruct_spectra",
    "detect_structures",
    "fit_gaussian_sigma",
    "write_csv_columns",
    "write_trace_csv",
    "read_trace_csv",
]


class UndersampledCarrierError(ValueError):
    """Trace samples the pump carrier too coarsely to demodulate."""


class SweepWindowError(ValueError):
    """Sweep window ends before the envelopes have decayed, or holds no structure."""


class NonFiniteTraceError(ValueError):
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
        if not 0 <= self.swept < n_delays:
            raise ValueError(f"swept delay {self.swept} out of range for {n_delays} delays")
        missing = set(range(n_delays)) - {self.swept} - set(self.fixed)
        if missing:
            raise ValueError(f"fixed delays missing indices {sorted(missing)}")
        taus = []
        grid = self.grid()
        for i in range(n_delays):
            taus.append(grid if i == self.swept else self.fixed[i])
        return taus


@dataclass(frozen=True)
class Trace:
    taus: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.taus) != len(self.values):
            raise ValueError("taus and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteTraceError("trace contains non-finite values")


@dataclass(frozen=True)
class EnvelopePair:
    upper: Trace
    lower: Trace

    def __post_init__(self):
        if not np.array_equal(self.upper.taus, self.lower.taus):
            raise ValueError("envelope traces must share the delay grid")
        if np.any(self.lower.values > self.upper.values + 1e-9):
            raise ValueError("lower envelope exceeds upper envelope")


@dataclass(frozen=True)
class AnalyticBackend:
    """Sweeps evaluated from a closed-form model (vectorized)."""

    model: AnalyticModel
    js: JointSpectrum

    @property
    def n_delays(self) -> int:
        return self.model.n_delays

    def response(self, taus):
        return analytic.evaluate(self.model, self.js, taus)


@dataclass(frozen=True)
class QuadratureBackend:
    """Sweeps evaluated point by point with the brute-force oracle."""

    tm: TransferMatrix
    js: JointSpectrum
    grid: Optional[GridSpec] = None

    @property
    def n_delays(self) -> int:
        return self.tm.n_delays

    def response(self, taus):
        """The oracle at each point of the delays' broadcast shape, as ``evaluate``."""
        return self.response_with_error(taus)[0]

    def response_with_error(self, taus):
        """The oracle's values, half-grid error estimates and grids, as ``response``.

        A point whose grid holds no half grid has a NaN estimate.  The
        grids come as each point's (N+, N-) node counts, in a last axis of
        two.
        """
        arrays = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in taus))
        rows = []
        for point in map(list, zip(*(a.flat for a in arrays))):
            grid = self.grid or suggested_grid(self.tm, self.js, point)
            rows.append((*integrate_R_with_error(self.tm, self.js, point, grid),
                         *grid.nodes))
        # dtype=float turns a None estimate into NaN
        rows = np.array(rows, dtype=float).reshape(arrays[0].shape + (4,))
        return rows[..., 0][()], rows[..., 1][()], rows[..., 2:].astype(int)


def sweep(backend, spec: SweepSpec) -> Trace:
    """Uniformly sample the normalized coincidence along one delay.

    A quadrature sweep's meta also holds ``max_error_estimate``, the
    largest half-grid estimate of its points (NaN if no grid had one), and
    ``grid_nodes``, the least and largest node count of each axis over its
    points' grids, as ((N+ least, N+ largest), (N- least, N- largest)).
    """
    taus = spec.delay_vectors(backend.n_delays)
    grid = taus[spec.swept]
    meta = {"fixed": dict(spec.fixed), "swept": spec.swept}
    if isinstance(backend, QuadratureBackend):
        values, estimates, nodes = backend.response_with_error(taus)
        meta["max_error_estimate"] = float(np.fmax.reduce(estimates))
        meta["grid_nodes"] = tuple(zip(nodes.min(axis=0).tolist(),
                                       nodes.max(axis=0).tolist()))
    else:
        values = backend.response(taus)
    return Trace(grid, np.asarray(values, dtype=float), meta)


def envelopes_analytic(model: AnalyticModel, js: JointSpectrum,
                       spec: SweepSpec) -> EnvelopePair:
    """Carrier-free upper/lower envelopes from the term list.

    Terms without a sum-frequency argument pass through unchanged; every
    carrier-bearing term contributes +- its magnitude (the cosine replaced
    by the sign that maximizes or minimizes the sum).
    """
    taus = spec.delay_vectors(model.n_delays)
    grid = taus[spec.swept]
    upper, lower = np.empty_like(grid), np.empty_like(grid)
    for block, factors in analytic.term_blocks(model, js, taus, carrier=False):
        base = swing = 0.0
        for coeff, _, plus, minus in factors:
            value = coeff
            if minus is not None:
                value = value * minus
            if plus is None:
                base = base + value
            else:
                swing = swing + np.abs(value * plus)
        upper[block] = base + swing
        lower[block] = base - swing
    meta = {"fixed": dict(spec.fixed), "swept": spec.swept}
    return EnvelopePair(
        upper=Trace(grid, upper, meta),
        lower=Trace(grid, lower, meta),
    )


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
        upper=Trace(trace.taus, baseband + magnitude, dict(trace.meta)),
        lower=Trace(trace.taus, baseband - magnitude, dict(trace.meta)),
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


def reconstruct_spectra(env: EnvelopePair, satellite_delay: Optional[float] = None):
    """Marginal spectral intensities from the envelope sum/difference.

    The envelope sum isolates the difference-frequency content (as
    ``2 - S``), the difference isolates the sum-frequency content with
    satellite replicas at the fixed delay, which are stripped before the
    transform.  Returns ((omega_minus, minus_intensity),
    (omega_plus, plus_intensity)), each peak-normalized.  A window in
    which either intensity is nowhere positive holds no structure to
    reconstruct from, and is refused with ``SweepWindowError``.
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
    if satellite_delay is None:
        satellite_delay = env.upper.meta.get("fixed", {}).get(0)
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
    """Linewidth of a peak-normalized spectral intensity exp(-W^2/2 s^2)."""
    # Imported here so that importing the package does not load SciPy.
    from scipy.optimize import curve_fit

    def model(w, amp, sig):
        return amp * np.exp(-(w**2) / (2.0 * sig**2))

    weight_cut = intensity > 1e-4 * intensity.max()
    popt, _ = curve_fit(
        model, omega[weight_cut], intensity[weight_cut],
        p0=[intensity.max(), max(abs(omega[np.argmax(intensity < 0.5 * intensity.max())]), 1e-3)],
        maxfev=10000,
    )
    return abs(popt[1])


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
    idx = 0
    n = len(active)
    while idx < n:
        if not active[idx]:
            idx += 1
            continue
        start = idx
        while idx < n and active[idx]:
            idx += 1
        seg = slice(start, idx)
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


#: Rows per formatted block in ``write_csv_columns``.
CSV_BLOCK = 4096


def write_csv_columns(handle, columns) -> None:
    """Write float columns as CSV rows, 17 significant digits each.

    Rows are formatted and written in blocks, never as one string.  A
    column shorter than the longest leaves its fields empty below its end.
    """
    start = 0
    for stop in sorted({len(c) for c in columns}):
        live = [c for c in columns if len(c) >= stop]
        row = ",".join("%.17g" if len(c) >= stop else "" for c in columns) + "\n"
        for first in range(start, stop, CSV_BLOCK):
            last = min(first + CSV_BLOCK, stop)
            values = np.column_stack([c[first:last] for c in live]).ravel()
            handle.write(row * (last - first) % tuple(values.tolist()))
        start = stop


def write_trace_csv(path_or_buffer, trace: Trace,
                    envelopes: Optional[EnvelopePair] = None) -> None:
    """CSV with header tau,value[,upper,lower], 17-significant-digit floats."""
    own = isinstance(path_or_buffer, (str, bytes))
    handle = open(path_or_buffer, "w") if own else path_or_buffer
    try:
        columns = [trace.taus, trace.values]
        if envelopes is None:
            handle.write("tau,value\n")
        else:
            handle.write("tau,value,upper,lower\n")
            columns += [envelopes.upper.values, envelopes.lower.values]
        write_csv_columns(handle, columns)
    finally:
        if own:
            handle.close()


def read_trace_csv(path):
    """Read a trace CSV; returns (Trace, EnvelopePair or None)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    taus = np.atleast_1d(data["tau"])
    trace = Trace(taus, np.atleast_1d(data["value"]))
    names = data.dtype.names
    if "upper" in names and "lower" in names:
        env = EnvelopePair(
            upper=Trace(taus, np.atleast_1d(data["upper"])),
            lower=Trace(taus, np.atleast_1d(data["lower"])),
        )
        return trace, env
    return trace, None
