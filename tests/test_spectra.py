"""Spectral profiles and correlation functions against independent oracles.

The correlation functions g+ and g- are read off the one-delay closed
forms: ``homi`` gives R = 1 - g-(t1) and ``noon`` gives R = 1 + g+(t1).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from biphoton_cascade.analytic import evaluate, expand
from biphoton_cascade.cascade import compose
from biphoton_cascade.interferogram import SweepSpec, envelopes_analytic
from biphoton_cascade.presets import preset_cascade
from biphoton_cascade.spectra import (
    _EXP_ZERO,
    _HERMITE_CAP,
    _MASKED_LANES,
    CorrelationClass,
    ExchangeSymmetry,
    JointSpectrum,
    ProfileKind,
    SpectralProfile,
    correlation_class,
)
from test_cascade import reference_density


def fourier_corr_oracle(profile: SpectralProfile, tau: float) -> float:
    """Normalized Fourier transform of the intensity, by direct quadrature.

    Independent of the closed forms under test: integrates
    cos(W tau) |f(W)|^2 / integral |f(W)|^2 numerically.
    """
    lim = 12.0 * profile.sigma
    num, _ = quad(
        lambda w: np.cos(w * tau) * profile.intensity(w), -lim, lim,
        limit=200,
    )
    den, _ = quad(lambda w: profile.intensity(w), -lim, lim, limit=200)
    return num / den


@pytest.mark.parametrize("kind", list(ProfileKind))
@pytest.mark.parametrize("sigma", [0.1, 0.7, 1.0])
def test_corr_matches_fourier_oracle(kind, sigma):
    profile = SpectralProfile(kind, sigma)
    rng = np.random.default_rng(2024)
    for tau in rng.uniform(-6.0 / sigma, 6.0 / sigma, 17):
        assert profile.corr(tau) == pytest.approx(
            fourier_corr_oracle(profile, tau), abs=1e-8
        )


def test_gaussian_corr_closed_form_values():
    profile = SpectralProfile(ProfileKind.GAUSSIAN, 1.0)
    assert profile.corr(0.0) == pytest.approx(1.0, abs=1e-15)
    assert profile.corr(1.0) == pytest.approx(0.60653065971263342, abs=1e-15)
    assert profile.corr(-1.0) == profile.corr(1.0)


def test_hermite_gaussian_corr_values():
    profile = SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 1.0)
    # (1 - tau^2) exp(-tau^2 / 2): zero crossing at tau = 1, negative beyond
    assert profile.corr(0.0) == pytest.approx(1.0, abs=1e-15)
    assert profile.corr(1.0) == pytest.approx(0.0, abs=1e-15)
    assert profile.corr(2.0) == pytest.approx(-3.0 * np.exp(-2.0), abs=1e-15)


def test_hermite_gaussian_corr_is_zero_where_its_argument_overflows():
    profile = SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 0.7)
    with np.errstate(over="ignore"):
        assert profile.corr(1e200) == 0.0
        assert np.array_equal(profile.corr(np.array([-1e300, 1e155, np.inf])), [0, 0, 0])
    # Finite arguments keep the exact bits of (1 - x) exp(-x / 2).
    tau = np.concatenate([np.linspace(-60.0, 60.0, 20001), [1e3, -4e10, 1e150]])
    x = (0.7 * tau) ** 2
    assert profile.corr(tau).tobytes() == ((1.0 - x) * np.exp(-x / 2.0)).tobytes()


def test_corr_is_silent_and_keeps_the_bits_of_the_unclamped_formula():
    # The clamp on |tau| changes no bit of exp(-x / 2) or (1 - x) exp(-x / 2)
    # with x = min((sigma tau)^2, 1500) computed with its overflow silenced,
    # not even the sign of a zero, and warns of nothing.
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324]
    far = np.geomspace(5e-324, 1e308, 4001)
    tau = np.concatenate([special, np.linspace(-80.0, 80.0, 16001), far, -far])
    for kind in ProfileKind:
        for sigma in (1e-3, 0.7, 1.0, 1e10, 1e150):
            profile = SpectralProfile(kind, sigma)
            with np.errstate(over="ignore"):
                x = np.minimum((sigma * tau) ** 2, 1500.0)
            expected = np.exp(-x / 2.0)
            if kind is ProfileKind.HERMITE_GAUSSIAN1:
                expected = (1.0 - x) * expected
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.concatenate(
                    [profile.corr(tau), [profile.corr(t) for t in special]])
            expected = np.concatenate([expected, expected[:len(special)]])
            # NaN signs follow no rule; NaN places and all other bits do.
            nan = np.isnan(expected)
            assert np.array_equal(np.isnan(values), nan)
            assert values[~nan].tobytes() == expected[~nan].tobytes()


def plain_corr(profile: SpectralProfile, tau):
    """``corr`` with exp on every lane, the reference for the lanes it skips."""
    x = np.minimum(np.abs(np.asarray(tau, dtype=float)),
                   np.sqrt(_HERMITE_CAP) / profile.sigma)
    x *= profile.sigma
    x *= x
    if profile.kind is ProfileKind.GAUSSIAN:
        return np.exp(-0.5 * x)
    return (1.0 - x) * np.exp(-0.5 * x)


def test_corr_skips_no_bit_where_exp_underflows():
    """Arrays long enough to skip exp on underflowed lanes keep every bit:
    the subnormal band x in [1416, 1491], the threshold's neighbours, the
    cap, NaN and the infinities, 0-d inputs and odd lengths."""
    band = np.sqrt(np.linspace(1416.0, 1491.0, 3001))
    edge = np.sqrt([np.nextafter(_EXP_ZERO, 0.0), _EXP_ZERO,
                    np.nextafter(_EXP_ZERO, 2e3), _HERMITE_CAP])
    for kind in ProfileKind:
        for sigma in (0.1, 1.0, 3.0):
            profile = SpectralProfile(kind, sigma)
            sweep = np.linspace(-400.0 / sigma, 400.0 / sigma, 2 * _MASKED_LANES + 1)
            cases = [sweep, sweep[:_MASKED_LANES], sweep[:_MASKED_LANES - 1],
                     sweep[::-1], sweep[:-1].reshape(32, -1),
                     np.concatenate([band, edge, -band]) / sigma,
                     np.concatenate([sweep, [np.inf, -np.inf]]),
                     np.concatenate([sweep, [np.nan]]),
                     np.full(_MASKED_LANES + 3, 1e3 / sigma)]
            cases += [np.float64(t) for t in (0.0, 2.5, 40.0, 1e3, np.inf, np.nan)]
            cases += [np.array(t / sigma) for t in edge]
            for tau in cases:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    values = profile.corr(tau)
                expected = plain_corr(profile, tau)
                assert np.shape(values) == np.shape(tau)
                nan = np.isnan(expected)
                assert np.array_equal(np.isnan(values), nan)
                assert np.asarray(values)[~nan].tobytes() == \
                    np.asarray(expected)[~nan].tobytes()


def test_hermite_gaussian_amplitude_is_odd():
    profile = SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 0.8)
    assert profile.is_odd
    w = np.linspace(0.1, 5.0, 23)
    np.testing.assert_allclose(profile.amplitude(-w), -profile.amplitude(w))


def test_gaussian_amplitude_is_even():
    profile = SpectralProfile(ProfileKind.GAUSSIAN, 0.8)
    assert not profile.is_odd
    w = np.linspace(0.1, 5.0, 23)
    np.testing.assert_allclose(profile.amplitude(-w), profile.amplitude(w))


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        SpectralProfile(ProfileKind.GAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        SpectralProfile(ProfileKind.GAUSSIAN, -1.0)


def _js(sigma_plus=1.0, sigma_minus=1.0, symmetry=ExchangeSymmetry.SYMMETRIC,
        pump=20.0):
    minus_kind = (
        ProfileKind.HERMITE_GAUSSIAN1
        if symmetry is ExchangeSymmetry.ANTISYMMETRIC
        else ProfileKind.GAUSSIAN
    )
    return JointSpectrum(
        plus=SpectralProfile(ProfileKind.GAUSSIAN, sigma_plus),
        minus=SpectralProfile(minus_kind, sigma_minus),
        symmetry=symmetry,
        pump_frequency=pump,
    )


def test_symmetry_parity_consistency_enforced():
    gaussian = SpectralProfile(ProfileKind.GAUSSIAN, 1.0)
    odd = SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 1.0)
    with pytest.raises(ValueError):
        JointSpectrum(gaussian, odd, ExchangeSymmetry.SYMMETRIC)
    with pytest.raises(ValueError):
        JointSpectrum(gaussian, gaussian, ExchangeSymmetry.ANTISYMMETRIC)


def test_pump_frequency_guard():
    gaussian = SpectralProfile(ProfileKind.GAUSSIAN, 1.0)
    with pytest.raises(ValueError):
        JointSpectrum(gaussian, gaussian, pump_frequency=5.0)


def _one_delay_model(preset, symmetry=ExchangeSymmetry.SYMMETRIC):
    return expand(compose(preset_cascade(preset)), symmetry)


def test_jsa_factorizes():
    # One delayed splitter: |f|^2 (2 - 2 cos(W_minus tau)) with f the
    # product of the two Gaussian marginal amplitudes.
    js = _js(0.7, 1.3)
    wp, wm, tau = 0.4, -1.1, 0.8
    ws = (js.pump_frequency + wp + wm) / 2.0
    wi = (js.pump_frequency + wp - wm) / 2.0
    f = np.exp(-(wp**2) / (4.0 * 0.7**2)) * np.exp(-(wm**2) / (4.0 * 1.3**2))
    tm = compose(preset_cascade("homi"))
    assert reference_density(tm, js, ws, wi, [tau]) == pytest.approx(
        f**2 * (2.0 - 2.0 * np.cos(wm * tau)), abs=1e-14
    )


def test_g_minus_is_carrier_free_and_even():
    js = _js(1.0, 0.5)
    homi = _one_delay_model("homi")
    taus = np.linspace(-8, 8, 41)
    g_minus = 1.0 - evaluate(homi, js, [taus])
    np.testing.assert_allclose(g_minus, 1.0 - evaluate(homi, js, [-taus]))
    np.testing.assert_allclose(
        g_minus, np.exp(-0.5**2 * taus**2 / 2.0), atol=1e-15
    )


def test_g_plus_carries_pump_oscillation():
    js = _js(1.0, 1.0, pump=20.0)
    noon = _one_delay_model("noon")
    # frozen oracle values: cos(20 tau) exp(-tau^2 / 2) at tau = 1.0, 0.5
    assert evaluate(noon, js, [1.0]) - 1.0 == pytest.approx(
        np.cos(20.0) * np.exp(-0.5), abs=1e-15
    )
    assert evaluate(noon, js, [1.0]) - 1.0 == pytest.approx(
        0.24751428216856827, abs=1e-12
    )
    assert evaluate(noon, js, [0.5]) - 1.0 == pytest.approx(
        -0.7404780254568895, abs=1e-12
    )


def test_envelope_magnitude_bounds_g_plus():
    js = _js(0.8, 1.0)
    noon = _one_delay_model("noon")
    spec = SweepSpec(fixed={}, swept=0, start=-5.0, stop=5.0, samples=401)
    g_plus = evaluate(noon, js, spec.delay_vectors(1)) - 1.0
    magnitude = envelopes_analytic(noon, js, spec).upper.values - 1.0
    np.testing.assert_allclose(magnitude, np.abs(js.plus.corr(spec.grid())),
                               atol=1e-15)
    assert np.all(np.abs(g_plus) <= magnitude + 1e-12)


@given(
    sigma=st.floats(0.05, 2.0),
    tau=st.floats(-20.0, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_corr_bounded_by_one(sigma, tau):
    for kind in ProfileKind:
        assert abs(SpectralProfile(kind, sigma).corr(tau)) <= 1.0 + 1e-12


def test_correlation_class():
    assert correlation_class(0.1, 1.0) is CorrelationClass.ANTI_CORRELATED
    assert correlation_class(1.0, 0.1) is CorrelationClass.CORRELATED
    assert correlation_class(1.0, 1.0) is CorrelationClass.UNCORRELATED
