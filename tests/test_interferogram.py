"""Sweeps, envelopes, reconstruction, and structure detection."""

import io
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from biphoton_cascade import textout
from biphoton_cascade.analytic import CHUNK, expand
from biphoton_cascade.cascade import compose
from biphoton_cascade.interferogram import (
    AnalyticBackend,
    EnvelopePair,
    NonFiniteTraceError,
    QuadratureBackend,
    SweepSpec,
    Trace,
    analytic_sweep,
    detect_structures,
    envelopes_analytic,
    envelopes_numeric,
    fit_gaussian_sigma,
    reconstruct_spectra,
    sweep,
)
from biphoton_cascade.presets import CLASS_SIGMAS, make_spectrum, preset_cascade
from biphoton_cascade.quadrature import suggested_grid
from biphoton_cascade.textout import CSV_BLOCK, write_csv_columns, write_polyline, write_trace_csv

JS = make_spectrum(1.0, 1.0)
_g17_text = textout._g17_text  # the fast CSV path, uncounted


def backend_for(preset, js=JS):
    tm = compose(preset_cascade(preset))
    return AnalyticBackend(expand(tm, js.symmetry), js)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(fixed={}, swept=0, start=1.0, stop=-1.0, samples=100)
    with pytest.raises(ValueError):
        SweepSpec(fixed={}, swept=0, start=-1.0, stop=1.0, samples=1)
    spec = SweepSpec(fixed={}, swept=1, start=-1.0, stop=1.0, samples=5)
    with pytest.raises(ValueError):
        spec.delay_vectors(2)  # delay 0 neither swept nor fixed


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(np.arange(4.0), np.arange(3.0))
    with pytest.raises(ValueError):
        Trace(np.arange(3.0), np.array([0.0, np.nan, 1.0]))


def test_envelope_pair_ordering_enforced():
    taus = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        EnvelopePair(Trace(taus, np.zeros(5)), Trace(taus, np.ones(5)))
    # The check runs in blocks: a breach in the last, short block is found,
    # and a gap of 1e-9 is allowed.
    taus = np.linspace(0, 1, 2 * CHUNK + 3)
    upper = np.zeros(len(taus))
    lower = upper.copy()
    lower[-1] = 1e-9
    EnvelopePair(Trace(taus, upper), Trace(taus, lower))
    lower[-1] = 2e-9
    with pytest.raises(ValueError, match="^lower envelope exceeds upper envelope$"):
        EnvelopePair(Trace(taus, upper), Trace(taus, lower))


def test_sweep_grid_and_meta():
    spec = SweepSpec(fixed={0: 2.5}, swept=1, start=-3.0, stop=3.0, samples=61)
    trace = sweep(backend_for("two_param_11"), spec)
    assert len(trace.taus) == 61
    assert trace.taus[0] == -3.0 and trace.taus[-1] == 3.0
    assert trace.meta == {}


def test_each_analytic_trace_owns_its_meta():
    spec = SweepSpec(fixed={0: 2.5}, swept=1, start=-3.0, stop=3.0, samples=61)
    model = backend_for("two_param_11").model
    trace, env = analytic_sweep(model, JS, spec)
    alone = envelopes_analytic(model, JS, spec)
    numeric = envelopes_numeric(trace, carrier_freq=1.0)
    traces = (trace, env.upper, env.lower, alone.upper, alone.lower,
              numeric.upper, numeric.lower)
    assert len({id(t.meta) for t in traces}) == len(traces)


def test_backends_produce_matching_sweeps():
    spec = SweepSpec(fixed={}, swept=0, start=-2.0, stop=2.0, samples=21)
    analytic_trace = sweep(backend_for("homi"), spec)
    tm = compose(preset_cascade("homi"))
    quad_trace = sweep(QuadratureBackend(tm, JS), spec)
    np.testing.assert_allclose(
        analytic_trace.values, quad_trace.values, atol=1e-8
    )


def test_quadrature_sweep_meta_states_each_axis_grid():
    # correlated three_param_2002: the narrow W- axis needs a fraction of
    # the W+ axis's nodes at every delay
    js = make_spectrum(1.0, 0.1)
    tm = compose(preset_cascade("three_param_2002"))
    spec = SweepSpec(fixed={0: 8.0, 1: 22.0}, swept=2, start=-80.0, stop=80.0,
                     samples=5)
    trace = sweep(QuadratureBackend(tm, js), spec)
    grids = [suggested_grid(tm, js, [8.0, 22.0, tau]).nodes for tau in trace.taus]
    plus, minus = zip(*grids)
    assert trace.meta["grid_nodes"] == ((min(plus), max(plus)), (min(minus), max(minus)))
    assert all(n_minus < n_plus / 4 for n_plus, n_minus in grids)
    assert trace.meta["max_error_estimate"] <= 1e-9


def test_analytic_envelopes_bound_trace():
    spec = SweepSpec(fixed={0: 5.0}, swept=1, start=-15.0, stop=15.0,
                     samples=3001)
    backend = backend_for("two_param_2002")
    trace = sweep(backend, spec)
    env = envelopes_analytic(backend.model, JS, spec)
    assert np.all(trace.values <= env.upper.values + 1e-12)
    assert np.all(trace.values >= env.lower.values - 1e-12)


def test_single_fringe_envelopes_closed_form():
    spec = SweepSpec(fixed={}, swept=0, start=-6.0, stop=6.0, samples=1201)
    backend = backend_for("noon")
    env = envelopes_analytic(backend.model, JS, spec)
    gauss = np.exp(-env.upper.taus**2 / 2.0)
    np.testing.assert_allclose(env.upper.values, 1.0 + gauss, atol=1e-9)
    np.testing.assert_allclose(env.lower.values, 1.0 - gauss, atol=1e-9)


def test_numeric_envelopes_on_pure_cosine():
    taus = np.linspace(-40.0, 40.0, 8001)
    trace = Trace(taus, 1.0 + np.cos(20.0 * taus))
    env = envelopes_numeric(trace, carrier_freq=20.0)
    mid = slice(1000, 7001)  # away from record edges
    np.testing.assert_allclose(env.upper.values[mid], 2.0, atol=1e-2)
    np.testing.assert_allclose(env.lower.values[mid], 0.0, atol=1e-2)


def test_numeric_envelopes_match_analytic():
    spec = SweepSpec(fixed={}, swept=0, start=-30.0, stop=30.0, samples=4096)
    backend = backend_for("noon")
    trace = sweep(backend, spec)
    numeric = envelopes_numeric(trace, JS.pump_frequency)
    exact = envelopes_analytic(backend.model, JS, spec)
    rms = np.sqrt(np.mean((numeric.upper.values - exact.upper.values) ** 2))
    assert rms < 0.02


def test_numeric_envelopes_reject_undersampled_carrier():
    taus = np.linspace(-40.0, 40.0, 120)  # < 4 samples per fringe
    trace = Trace(taus, 1.0 + np.cos(20.0 * taus))
    with pytest.raises(ValueError, match="carrier"):
        envelopes_numeric(trace, carrier_freq=20.0)


def test_reconstruction_round_trip():
    sigma_plus, sigma_minus = 1.0, 0.5
    js = make_spectrum(sigma_plus, sigma_minus, pump_frequency=12.0)
    backend = backend_for("two_param_2002", js)
    spec = SweepSpec(fixed={0: 5.0}, swept=1, start=-260.0, stop=260.0,
                     samples=4096)
    trace = sweep(backend, spec)
    env = envelopes_numeric(trace, js.pump_frequency)
    (w_m, i_m), (w_p, i_p) = reconstruct_spectra(env, satellite_delay=5.0)
    assert fit_gaussian_sigma(w_m, i_m) == pytest.approx(sigma_minus, rel=0.02)
    assert fit_gaussian_sigma(w_p, i_p) == pytest.approx(sigma_plus, rel=0.02)


def test_reconstruction_rejects_short_window():
    js = make_spectrum(1.0, 0.1, pump_frequency=12.0)
    backend = backend_for("two_param_2002", js)
    # g- has not decayed by the record edge at +-8
    spec = SweepSpec(fixed={0: 5.0}, swept=1, start=-8.0, stop=8.0,
                     samples=2048)
    env = envelopes_analytic(backend.model, js, spec)
    with pytest.raises(ValueError, match="window"):
        reconstruct_spectra(env, satellite_delay=5.0)


def test_fit_gaussian_sigma_exact():
    w = np.linspace(-6, 6, 301)
    assert fit_gaussian_sigma(w, np.exp(-w**2 / (2 * 0.8**2))) == \
        pytest.approx(0.8, abs=1e-9)


@given(sigma=st.floats(0.05, 5.0), amp=st.floats(0.1, 10.0),
       span=st.floats(3.0, 40.0), per_sigma=st.integers(4, 40),
       symmetric=st.booleans())
@settings(max_examples=60, deadline=None)
# From the start 4 sigma, one step to s = 0.016 lowered the sum of squares,
# and the fit then stalled on the flat s -> 0 side.
@example(sigma=1.0, amp=1.0, span=4.0, per_sigma=5, symmetric=True)
def test_fit_gaussian_sigma_recovers_exact_gaussians(sigma, amp, span, per_sigma,
                                                      symmetric):
    # grids from W = 0, as the reconstruction's, or symmetric about it; a
    # symmetric grid starts the fit at span * sigma
    w = np.linspace(-span * sigma if symmetric else 0.0, span * sigma,
                    int(span * per_sigma * (2 if symmetric else 1)) + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_gaussian_sigma(w, amp * np.exp(-w**2 / (2 * sigma**2)))
    assert fit == pytest.approx(sigma, rel=1e-9)


def test_fit_gaussian_sigma_warns_when_the_start_is_pinned():
    # The first point is below half the peak, so the linewidth starts at the
    # 1e-3 floor, where every point but W = 0 is all but zero and no step can
    # move it (as on two_param_11_uncorrelated): the fit returns the floor.
    w = np.linspace(0.0, 10.0, 512)
    with pytest.warns(UserWarning) as record:
        assert fit_gaussian_sigma(w, np.exp(-(w - 5.0) ** 2 / 2.0)) == 0.001
    assert [(r.category, str(r.message)) for r in record] == [
        (UserWarning, "Covariance of the parameters could not be estimated")]


def _curve_fit_sigma(omega, intensity):
    """The linewidth as SciPy's ``curve_fit`` finds it, from the same points
    and start as ``fit_gaussian_sigma``."""
    kept = intensity > 1e-4 * intensity.max()
    start = [intensity.max(),
             max(abs(omega[np.argmax(intensity < 0.5 * intensity.max())]), 1e-3)]
    popt, _ = curve_fit(lambda w, amp, sig: amp * np.exp(-(w**2) / (2.0 * sig**2)),
                        omega[kept], intensity[kept], p0=start, maxfev=10000)
    return abs(popt[1])


@pytest.mark.parametrize("delay", [5.0, 5.5, 6.0])
@pytest.mark.parametrize("correlation", sorted(CLASS_SIGMAS))
def test_fit_gaussian_sigma_matches_curve_fit_on_round_trips(correlation, delay):
    # the benchmark's reconstruction: two_param_2002 at 4096 samples over
    # +-260, the fixed delay at 5 to 6 over sigma+
    sigma_plus, sigma_minus = CLASS_SIGMAS[correlation]
    js = make_spectrum(sigma_plus, sigma_minus, pump_frequency=12.0)
    tau1 = delay / sigma_plus
    spec = SweepSpec(fixed={0: tau1}, swept=1, start=-260.0, stop=260.0, samples=4096)
    trace = sweep(backend_for("two_param_2002", js), spec)
    env = envelopes_numeric(trace, js.pump_frequency)
    for omega, intensity in reconstruct_spectra(env, satellite_delay=tau1):
        assert fit_gaussian_sigma(omega, intensity) == pytest.approx(
            _curve_fit_sigma(omega, intensity), rel=1e-7)


def test_detect_structures_synthetic_baseband():
    taus = np.linspace(-50, 50, 5001)
    values = (
        1.0
        - 0.25 * np.exp(-((taus - 10.0) ** 2) / 2.0)
        + 0.10 * np.exp(-((taus + 25.0) ** 2) / 2.0)
    )
    found = detect_structures(Trace(taus, values), baseline=1.0)
    assert len(found) == 2
    by_center = sorted(found, key=lambda s: s.center)
    assert by_center[0].center == pytest.approx(-25.0, abs=0.05)
    assert by_center[0].visibility == pytest.approx(0.10, rel=0.02)
    assert by_center[1].center == pytest.approx(10.0, abs=0.05)
    assert by_center[1].visibility == pytest.approx(0.25, rel=0.02)


def test_detect_structures_flags_overlap():
    taus = np.linspace(-20, 20, 4001)
    values = (
        1.0
        + 0.2 * np.exp(-((taus - 1.5) ** 2) / 2.0)
        + 0.2 * np.exp(-((taus + 1.5) ** 2) / 2.0)
    )
    found = detect_structures(Trace(taus, values), baseline=1.0)
    assert len(found) == 1
    assert found[0].overlapped


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


def test_csv_round_trip_plain():
    taus = np.linspace(-1.0, 1.0, 7)
    values = np.sqrt(np.abs(taus) + 0.1)  # irrational values exercise %.17g
    buffer = io.StringIO()
    write_trace_csv(buffer, Trace(taus, values))
    buffer.seek(0)
    assert buffer.getvalue().splitlines()[0] == "tau,value"
    loaded, env = read_trace_csv(io.StringIO(buffer.getvalue()))
    assert env is None
    np.testing.assert_array_equal(loaded.taus, taus)
    np.testing.assert_array_equal(loaded.values, values)


def test_csv_round_trip_with_envelopes(tmp_path):
    taus = np.linspace(0.0, 2.0, 9)
    trace = Trace(taus, np.cos(taus))
    env = EnvelopePair(Trace(taus, np.full(9, 1.0)), Trace(taus, -np.ones(9)))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace, env)
    header = path.read_text().splitlines()[0]
    assert header == "tau,value,upper,lower"
    loaded, loaded_env = read_trace_csv(str(path))
    np.testing.assert_array_equal(loaded.values, trace.values)
    np.testing.assert_array_equal(loaded_env.upper.values, env.upper.values)
    np.testing.assert_array_equal(loaded_env.lower.values, env.lower.values)


def per_row_csv(columns):
    """CSV rows formatted one value at a time, as the writers did before."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns, strict=True))


@pytest.fixture
def csv_blocks(monkeypatch):
    """Counts of the CSV blocks formatted fast and through printf."""
    counts = {"fast": 0, "printf": 0}
    fast = textout._g17_text

    def counted(values, seps):
        text = fast(values, seps)
        counts["printf" if text is None else "fast"] += 1
        return text

    monkeypatch.setattr(textout, "_g17_text", counted)
    return counts


#: Row counts at the edges of one block and of several.
BLOCK_EDGES = [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
               4 * CSV_BLOCK - 1, 4 * CSV_BLOCK, 4 * CSV_BLOCK + 1]


def g17(values) -> bool:
    """Fast text of ``values``, one a row, where given, equals printf's;
    True iff it was given."""
    values = np.asarray(values, dtype=float)
    text = _g17_text(values, np.full(len(values), 10 << 56, np.uint64))
    if text is not None:
        assert text == per_row_csv([values])
    return text is not None


@pytest.mark.parametrize("rows", BLOCK_EDGES)
def test_block_csv_matches_per_row_formatting(rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    values[::7] = -0.0
    columns = [np.linspace(-1.0, 1.0, rows), values, values[::-1], np.arange(rows) / 3.0]
    buffer = io.StringIO()
    write_csv_columns(buffer, columns)
    assert buffer.getvalue() == per_row_csv(columns)
    with pytest.raises(ValueError, match="equal length"):
        write_csv_columns(buffer, [columns[0], values[: rows // 2]])
    assert buffer.getvalue() == per_row_csv(columns)  # nothing more written
    trace = Trace(columns[0], values)
    env = EnvelopePair(Trace(columns[0], values + 1.0), Trace(columns[0], values - 1.0))
    buffer = io.StringIO()
    write_trace_csv(buffer, trace, env)
    assert buffer.getvalue() == "tau,value,upper,lower\n" + per_row_csv(
        [columns[0], values, values + 1.0, values - 1.0])


@pytest.mark.parametrize("rows", BLOCK_EDGES)
def test_block_csv_takes_the_fast_path(rows, csv_blocks):
    """Signed zeros, both notations and every exponent the fast path
    takes, each block formatted without printf."""
    rng = np.random.default_rng(rows)
    # Doubles from 1e12 to 1e17 with a fraction are often exact ties at the
    # 18th digit, which printf takes: those exponents are skipped.
    exponents = rng.integers(-200, 195, rows)
    exponents[exponents >= 12] += 5
    values = rng.standard_normal(rows) * 10.0 ** exponents
    values[::7] = -0.0
    values[3::7] = 0.0
    columns = [np.linspace(-80.0, 80.0, rows), values, rng.uniform(-1.0, 1.0, rows),
               rng.integers(-10**17, 10**17, rows).astype(float)]
    buffer = io.StringIO()
    write_csv_columns(buffer, columns)
    assert buffer.getvalue() == per_row_csv(columns)
    assert csv_blocks == {"fast": -(-rows // CSV_BLOCK), "printf": 0}


def test_fast_csv_edge_cases_match_printf(csv_blocks):
    # Exact ties at the 18th digit, rounded half to even, go to printf.
    for tie, text in ((2**-25, "2.9802322387695312e-08"), (3 * 2**-25, "8.9406967163085938e-08")):
        assert not g17([tie])
        buffer = io.StringIO()
        write_csv_columns(buffer, [np.array([tie])])
        assert buffer.getvalue() == text + "\n"
    assert csv_blocks == {"fast": 0, "printf": 2}
    # The double 1e-280 lies just below it, and log10 rounds up to -280.
    buffer = io.StringIO()
    write_csv_columns(buffer, [np.array([9.9999999999999996e-281, 1e-100])])
    assert buffer.getvalue() == "9.9999999999999996e-281\n1e-100\n"
    assert csv_blocks == {"fast": 1, "printf": 2}
    powers = np.array([float(f"1e{k}") for k in range(-280, 281)])
    below = np.nextafter(powers, 0.0)
    tie = below == 999999999999999.875  # the one exact tie among the neighbours
    assert tie.sum() == 1 and not g17(below[tie])
    for values in (powers, below[~tie], np.nextafter(powers, np.inf), -powers):
        assert g17(values)
    assert g17([1e16, 1e17, 99999999999999999.0, np.nextafter(1e17, 0.0), np.nextafter(1e16, 0.0),
                12345678901234567.0, 0.0001, np.nextafter(1e-4, 0.0), 0.0, -0.0])
    for special in (5e-324, 1e-310, 2.2250738585072014e-308, np.nan, np.inf, -np.inf,
                    1e300, -1e-300, 1.7976931348623157e308):
        assert not g17([special, 1.0])
    values = np.concatenate([powers, [2**-25, 5e-324, -0.0, 0.0, np.nan, np.inf, -np.inf, 1e300,
                                      -1e-300, 1e16, 1e17, 9.9999999999999996e-281]])
    buffer = io.StringIO()
    write_csv_columns(buffer, [values, values[::-1]])
    assert buffer.getvalue() == per_row_csv([values, values[::-1]])
    # Integers are formatted as the doubles they convert to.
    integers = np.random.default_rng(0).integers(-10**17, 10**17, 64)
    buffer = io.StringIO()
    write_csv_columns(buffer, [integers, integers.tolist()])
    assert buffer.getvalue() == per_row_csv([integers, integers])


def test_a_big_endian_host_writes_every_block_through_printf(monkeypatch, csv_blocks):
    """The word tables hold little-endian text, so on any other host every
    CSV and SVG block goes to printf, with the same bytes."""
    rows = 2 * max(CSV_BLOCK, textout._SVG_BLOCK) + 1
    xs = np.linspace(-80.0, 80.0, rows)
    columns = [xs, np.cos(xs), 1.0 + np.exp(-xs**2)]
    polyline = (xs, columns[1], -80.0, 80.0, -1.0, 1.0, 720, 360, 40.0)
    writes = []
    for order in ("little", "big"):
        monkeypatch.setattr(sys, "byteorder", order)
        csv, svg = io.StringIO(), io.StringIO()
        write_csv_columns(csv, columns)
        write_polyline(svg, *polyline)
        writes.append((csv.getvalue(), svg.getvalue()))
    assert writes[0] == writes[1]
    assert writes[0][0] == per_row_csv(columns)
    blocks = -(-rows // CSV_BLOCK)
    assert csv_blocks == {"fast": blocks, "printf": blocks}
    assert textout._hundredths_text(np.array([1.0, 2.0])) is None


@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=60), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_any_doubles_match_printf(values, width):
    columns = [np.array(values[i::width], dtype=float) for i in range(width)]
    rows = min(len(c) for c in columns)
    columns = [c[:rows] for c in columns]
    buffer = io.StringIO()
    write_csv_columns(buffer, columns)
    assert buffer.getvalue() == per_row_csv(columns)
    g17(values)


@given(st.lists(st.floats(1e-290, 1e290) | st.floats(-1e290, -1e-290) | st.just(0.0),
                min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_doubles_in_range_match_printf(values):
    g17(values)


def test_trace_checks_allocate_no_sample_length_temporary():
    taus = np.linspace(-80.0, 80.0, 10**6)
    upper, lower = np.ones(len(taus)), np.zeros(len(taus))
    trace = Trace(taus, upper)
    pair = (trace, Trace(taus, lower))
    for build, args in ((Trace, (taus, upper)), (EnvelopePair, pair)):
        tracemalloc.start()
        try:
            build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One block's float temporary and mask; a sample-length mask is 10**6 bytes.
        assert peak < 16 * CHUNK, (build.__name__, peak)
    with pytest.raises(ValueError, match="^envelope traces must share the delay grid$"):
        EnvelopePair(trace, Trace(taus + 1.0, lower))
    EnvelopePair(trace, Trace(taus.copy(), lower))
    upper[-1] = np.nan
    with pytest.raises(NonFiniteTraceError, match="^trace contains non-finite values$"):
        Trace(taus, upper)
