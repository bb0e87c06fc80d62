"""Sweeps, envelopes, reconstruction, and structure detection."""

import io

import numpy as np
import pytest

from biphoton_cascade.analytic import expand
from biphoton_cascade.cascade import compose
from biphoton_cascade.interferogram import (
    CSV_BLOCK,
    AnalyticBackend,
    EnvelopePair,
    QuadratureBackend,
    SweepSpec,
    Trace,
    detect_structures,
    envelopes_analytic,
    envelopes_numeric,
    fit_gaussian_sigma,
    read_trace_csv,
    reconstruct_spectra,
    sweep,
    write_csv_columns,
    write_trace_csv,
)
from biphoton_cascade.presets import make_spectrum, preset_cascade
from biphoton_cascade.quadrature import suggested_grid
from biphoton_cascade.spectra import ExchangeSymmetry

JS = make_spectrum(1.0, 1.0)


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


def test_sweep_grid_and_meta():
    spec = SweepSpec(fixed={0: 2.5}, swept=1, start=-3.0, stop=3.0, samples=61)
    trace = sweep(backend_for("two_param_11"), spec)
    assert len(trace.taus) == 61
    assert trace.taus[0] == -3.0 and trace.taus[-1] == 3.0
    assert trace.meta == {"fixed": {0: 2.5}, "swept": 1}


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
    values, estimates, nodes = QuadratureBackend(tm, js).response_with_error(
        [8.0, 22.0, trace.taus.reshape(5, 1)])
    assert values.shape == estimates.shape == (5, 1) and nodes.shape == (5, 1, 2)
    assert nodes.reshape(5, 2).tolist() == [list(grid) for grid in grids]


def test_backends_broadcast_delays_alike():
    tm = compose(preset_cascade("two_param_11"))
    analytic, quad = backend_for("two_param_11"), QuadratureBackend(tm, JS)
    taus = [np.array([[0.5, 1.0], [2.0, 3.0]]), np.array([[1.5], [0.2]])]
    values = quad.response(taus)
    assert values.shape == (2, 2)
    np.testing.assert_allclose(values, analytic.response(taus), atol=1e-6)
    errors = []
    for backend in (analytic, quad):
        with pytest.raises(ValueError) as info:
            backend.response([np.zeros(3), np.zeros(5)])
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "broadcast" in errors[0]


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
    write_trace_csv(str(path), trace, env)
    header = path.read_text().splitlines()[0]
    assert header == "tau,value,upper,lower"
    loaded, loaded_env = read_trace_csv(str(path))
    np.testing.assert_array_equal(loaded.values, trace.values)
    np.testing.assert_array_equal(loaded_env.upper.values, env.upper.values)
    np.testing.assert_array_equal(loaded_env.lower.values, env.lower.values)


def per_row_csv(columns):
    """CSV rows formatted one value at a time, as the writers did before."""
    lines = []
    for i in range(max(len(c) for c in columns)):
        lines.append(",".join(f"{c[i]:.17g}" if i < len(c) else "" for c in columns))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("rows", [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_block_csv_matches_per_row_formatting(rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    values[::7] = -0.0
    columns = [np.linspace(-1.0, 1.0, rows), values,
               values[: rows // 2 + 1], np.arange(rows // 3 + 1) / 3.0]
    buffer = io.StringIO()
    write_csv_columns(buffer, columns)
    assert buffer.getvalue() == per_row_csv(columns)
    trace = Trace(columns[0], values)
    env = EnvelopePair(Trace(columns[0], values + 1.0), Trace(columns[0], values - 1.0))
    buffer = io.StringIO()
    write_trace_csv(buffer, trace, env)
    assert buffer.getvalue() == "tau,value,upper,lower\n" + per_row_csv(
        [columns[0], values, values + 1.0, values - 1.0])
