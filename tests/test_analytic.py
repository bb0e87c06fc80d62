"""Closed-form expansion against hand-transcribed term-list fixtures.

Every fixture below was written out by hand from the beam-splitter
algebra: each term is (coefficient, sum-frequency argument combo,
difference-frequency argument combo), with both argument combos in
canonical sign (first nonzero delay coefficient positive).
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import runpy
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton_cascade import analytic, cli, figures, validation
from biphoton_cascade.analytic import (
    CHUNK,
    AnalyticModel,
    ZeroBaselineError,
    antisymmetric_equivalence_check,
    asymptotic_prune,
    evaluate,
    expand,
    render_latex,
    render_text,
    swap_rule,
)
from biphoton_cascade.cascade import CascadeConfig, combo_dot, compose
from biphoton_cascade.config import load_config
from biphoton_cascade.interferogram import (
    AnalyticBackend,
    SweepSpec,
    analytic_sweep,
    envelopes_analytic,
    sweep,
)
from biphoton_cascade.presets import CLASS_SIGMAS, PRESETS, make_spectrum, preset_cascade
from biphoton_cascade.spectra import (_HERMITE_CAP, ExchangeSymmetry, ProfileKind, SpectralProfile,
                                      corr_product_peaks)
from test_expand import cascades as expand_cascades
from test_spectra import plain_corr

F = Fraction


def term(coeff, plus_arg, minus_arg):
    """One exact term as ``AnalyticModel.terms`` holds it."""
    return F(coeff), tuple(map(F, plus_arg)), tuple(map(F, minus_arg))


def model_for(preset, symmetry=ExchangeSymmetry.SYMMETRIC):
    return expand(compose(preset_cascade(preset)), symmetry)


# ---------------------------------------------------------------------------
# Single-delay fixtures: 1 - g-(t1) and 1 + g+(t1)

HOMI_FIXTURE = [
    term(1, (0,), (0,)),
    term(-1, (0,), (1,)),
]

NOON_FIXTURE = [
    term(1, (0,), (0,)),
    term(1, (1,), (0,)),
]


def test_single_delay_fixtures():
    assert frozenset(model_for("homi").terms) == frozenset(HOMI_FIXTURE)
    assert frozenset(model_for("noon").terms) == frozenset(NOON_FIXTURE)


# ---------------------------------------------------------------------------
# Two-delay fixtures, |1,1> and |2002> inputs

TWO_PARAM_11_FIXTURE = [
    term(1, (0, 0), (0, 0)),
    term("1/2", (0, 1), (1, 0)),       # g+(t2) g-(t1)
    term("1/2", (0, 0), (0, 1)),       # g-(t2)
    term("1/2", (0, 1), (0, 0)),       # g+(t2)
    term("-1/4", (0, 0), (1, 1)),      # g-(t1 + t2)
    term("-1/4", (0, 0), (1, -1)),     # g-(t1 - t2)
]

TWO_PARAM_2002_FIXTURE = [
    term(1, (0, 0), (0, 0)),
    term("-1/2", (1, 0), (0, 1)),      # g+(t1) g-(t2)
    term("-1/2", (0, 1), (0, 0)),      # g+(t2)
    term("-1/2", (0, 0), (0, 1)),      # g-(t2)
    term("1/4", (1, 1), (0, 0)),       # g+(t1 + t2)
    term("1/4", (1, -1), (0, 0)),      # g+(t1 - t2)
]


def test_two_delay_fixtures():
    assert frozenset(model_for("two_param_11").terms) == frozenset(TWO_PARAM_11_FIXTURE)
    assert frozenset(model_for("two_param_2002").terms) == \
        frozenset(TWO_PARAM_2002_FIXTURE)


# ---------------------------------------------------------------------------
# Three-delay |1,1> cascade: all 28 canonical terms

THREE_PARAM_11_FIXTURE = [
    term(1, (0, 0, 0), (0, 0, 0)),
    # pairwise t1/t3 block
    term("-1/2", (0, 0, 1), (1, 0, 0)),
    term("-1/4", (0, 0, 0), (1, 0, 1)),
    term("-1/4", (0, 0, 0), (1, 0, -1)),
    # pairwise t2/t3 block
    term("-1/4", (0, 0, 1), (0, 1, 0)),
    term("-1/4", (0, 1, 0), (0, 0, 1)),
    term("1/8", (0, 0, 0), (0, 1, 1)),
    term("1/8", (0, 0, 0), (0, 1, -1)),
    term("1/8", (0, 1, 1), (0, 0, 0)),
    term("1/8", (0, 1, -1), (0, 0, 0)),
    # t1 against t2 +- t3 block
    term("1/8", (0, 0, 1), (1, 1, 0)),
    term("1/8", (0, 0, 1), (1, -1, 0)),
    term("1/8", (0, 1, 1), (1, 0, 0)),
    term("1/8", (0, 1, -1), (1, 0, 0)),
    term("-1/16", (0, 0, 0), (1, 1, 1)),
    term("-1/16", (0, 0, 0), (1, -1, -1)),
    term("-1/16", (0, 0, 0), (1, 1, -1)),
    term("-1/16", (0, 0, 0), (1, -1, 1)),
    # half-integer t2 carrier block
    term("-1/8", (0, 1, 0), (1, 0, 1)),
    term("-1/8", (0, 1, 0), (1, 0, -1)),
    term("1/4", (0, "1/2", 0), (1, "1/2", -1)),
    term("1/4", (0, "1/2", 0), (1, "-1/2", -1)),
    term("-1/4", (0, "1/2", 0), (1, "1/2", 1)),
    term("-1/4", (0, "1/2", 0), (1, "-1/2", 1)),
    # mixed half-integer carrier/envelope block
    term("1/4", (0, "1/2", -1), (1, "1/2", 0)),
    term("-1/4", (0, "1/2", -1), (1, "-1/2", 0)),
    term("1/4", (0, "1/2", 1), (1, "-1/2", 0)),
    term("-1/4", (0, "1/2", 1), (1, "1/2", 0)),
]


def test_three_delay_full_fixture():
    model = model_for("three_param_11")
    assert len(model.terms) == 28
    assert frozenset(model.terms) == frozenset(THREE_PARAM_11_FIXTURE)


def test_three_delay_2002_term_count():
    assert len(model_for("three_param_2002").terms) == 28


# ---------------------------------------------------------------------------
# Large-fixed-delay simplification of the three-delay model: 11 terms

THREE_PARAM_PRUNED_FIXTURE = [
    term(1, (0, 0, 0), (0, 0, 0)),
    term("-1/4", (0, 0, 0), (1, 0, 1)),
    term("-1/4", (0, 0, 0), (1, 0, -1)),
    term("1/8", (0, 0, 0), (0, 1, 1)),
    term("1/8", (0, 0, 0), (0, 1, -1)),
    term("1/8", (0, 1, 1), (0, 0, 0)),
    term("1/8", (0, 1, -1), (0, 0, 0)),
    term("-1/16", (0, 0, 0), (1, 1, 1)),
    term("-1/16", (0, 0, 0), (1, -1, -1)),
    term("-1/16", (0, 0, 0), (1, 1, -1)),
    term("-1/16", (0, 0, 0), (1, -1, 1)),
]


def test_prune_at_large_fixed_delays():
    js = make_spectrum(1.0, 1.0)
    model = model_for("three_param_11")
    pruned = asymptotic_prune(model, {0: 8.0, 1: 22.0}, swept=2, js=js,
                              threshold=1e-2)
    assert frozenset(pruned.terms) == frozenset(THREE_PARAM_PRUNED_FIXTURE)


def test_prune_keeps_marginal_terms_at_tight_threshold():
    # Two of the dropped carrier terms still peak near 2.8e-3 at these
    # fixed delays, so a 1e-6 threshold honestly retains 13 terms; the
    # 11-term form requires a percent-level cut.
    js = make_spectrum(1.0, 1.0)
    model = model_for("three_param_11")
    assert len(asymptotic_prune(model, {0: 8.0, 1: 22.0}, swept=2, js=js,
                                threshold=1e-6).terms) == 13


@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry),
                         ids=["symmetric", "antisymmetric"])
def test_prune_is_sound_numerically(symmetry):
    js = make_spectrum(1.0, 1.0, symmetry)
    model = model_for("three_param_11", symmetry)
    threshold = 1e-6
    pruned = asymptotic_prune(model, {0: 8.0, 1: 22.0}, swept=2, js=js,
                              threshold=threshold)
    taus3 = np.linspace(-40.0, 40.0, 2001)
    full = evaluate(model, js, [8.0, 22.0, taus3])
    approx = evaluate(pruned, js, [8.0, 22.0, taus3])
    dropped = len(model.terms) - len(pruned.terms)
    assert dropped > 0
    assert np.abs(full - approx).max() <= dropped * threshold


def test_prune_keeps_terms_whose_peak_overflows():
    # At tau_1 = tau_2 = 1e308 the fixed part of t1 + t2 overflows to inf
    # and the peak to NaN; a term whose peak cannot be computed is kept,
    # never dropped.
    antisymmetric = ExchangeSymmetry.ANTISYMMETRIC
    js = make_spectrum(1.0, 1.0, antisymmetric)
    model = model_for("three_param_11", antisymmetric)
    at_origin = [1e308, 1e308, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        pruned = asymptotic_prune(model, {0: 1e308, 1: 1e308}, swept=2, js=js,
                                  threshold=1e-2)
        overflowing = {(c, p, m) for c, p, m in model.terms
                       if not np.isfinite(combo_dot(p, at_origin))
                       or not np.isfinite(combo_dot(m, at_origin))}
    assert overflowing and overflowing <= set(pruned.terms)


@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry))
def test_prune_drops_terms_zero_beyond_the_cap(symmetry):
    # At tau_1 = 1e200 a factor whose argument holds t1 but not t2 is
    # exactly 0 wherever t2 sweeps: its term's peak is 0 and it goes, with
    # no overflow warning, while g(t1 +- t2) peaks at t2 = -+t1 and stays.
    js = make_spectrum(1.0, 0.1, symmetry)
    model = model_for("two_param_11", symmetry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pruned = asymptotic_prune(model, {0: 1e200}, swept=1, js=js, threshold=1e-2)
    dropped = set(model.terms) - set(pruned.terms)
    assert dropped == {(c, p, m) for c, p, m in model.terms
                       if (p[0] and not p[1]) or (m[0] and not m[1])}
    assert dropped


@pytest.mark.parametrize("swept", [3, -1])
def test_out_of_range_swept_delay_is_refused(swept):
    model = model_for("three_param_2002")
    js = make_spectrum(1.0, 0.1)
    fixed = {0: 8.0, 1: 22.0, 2: 3.0}
    message = f"swept delay {swept} out of range for 3 delays"
    with pytest.raises(ValueError, match=message):
        asymptotic_prune(model, fixed, swept, js, 1e-2)
    spec = SweepSpec(fixed=fixed, swept=swept, start=-40.0, stop=40.0, samples=101)
    with pytest.raises(ValueError, match=message):
        sweep(AnalyticBackend(model, js), spec)


def test_missing_fixed_delay_is_refused():
    model = model_for("three_param_2002")
    js = make_spectrum(1.0, 0.1)
    fixed = {1: 22.0}
    message = r"^fixed delays missing indices \[0\]$"
    with pytest.raises(ValueError, match=message):
        asymptotic_prune(model, fixed, 2, js, 1e-2)
    spec = SweepSpec(fixed=fixed, swept=2, start=-40.0, stop=40.0, samples=101)
    with pytest.raises(ValueError, match=message):
        sweep(AnalyticBackend(model, js), spec)


def sampled_peak(js, fix, slope):
    """Largest sampled |corr_plus * corr_minus| along t, independent of the
    closed form: a grid over both centres, refined around each local maximum."""

    def magnitude(t):
        return np.abs(js.plus.corr(fix[0] + slope[0] * t)
                      * js.minus.corr(fix[1] + slope[1] * t))

    moving = slope != 0
    if not moving.any():
        return float(magnitude(0.0))
    centres = -fix[moving] / slope[moving]
    reach = 10.0 / min(js.plus.sigma, js.minus.sigma)
    grid = np.linspace(centres.min() - reach, centres.max() + reach, 20001)
    values = magnitude(grid)
    step = grid[1] - grid[0]
    best = values.max()
    tops = np.flatnonzero((values[1:-1] > values[:-2]) & (values[1:-1] >= values[2:])) + 1
    for i in tops:
        best = max(best, magnitude(np.linspace(grid[i] - step, grid[i] + step, 2001)).max())
    return float(best)


SPECTRA = sorted(CLASS_SIGMAS) + ["hermite_gaussian_plus"]


@given(
    cascade=expand_cascades(),
    symmetry=st.sampled_from(ExchangeSymmetry),
    spectrum=st.sampled_from(SPECTRA),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_term_peaks_match_a_dense_sample(cascade, symmetry, spectrum, data):
    try:
        model = expand(compose(cascade), symmetry)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by
    if spectrum in CLASS_SIGMAS:
        js = make_spectrum(*CLASS_SIGMAS[spectrum], symmetry)
    else:
        js = dataclasses.replace(
            make_spectrum(1.0, 0.1, symmetry),
            plus=SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 1.0))
    n = cascade.n_delays
    swept = data.draw(st.integers(0, n - 1))
    delay = st.floats(-15.0, 15.0, allow_nan=False)
    at_origin = [0.0 if i == swept else data.draw(delay) for i in range(n)]
    terms = [(p, m) for _, p, m in model.terms if any(p) or any(m)]
    args = np.array(terms, dtype=float).reshape(len(terms), 2, n)
    fix, slope = args @ np.array(at_origin), args[:, :, swept]
    peaks = corr_product_peaks(js, fix, slope)
    for peak, f, s in zip(peaks, fix, slope):
        sampled = sampled_peak(js, f, s)
        # Never below the sample, up to rounding in evaluating the factors,
        # so pruning on the peak drops nothing that matters.
        assert peak >= sampled * (1 - 1e-12)
        assert peak == pytest.approx(sampled, rel=1e-6, abs=1e-300)


def companion_peaks(js, fix, slope):
    """``corr_product_peaks`` as it was before degree-1 rows took their
    root directly: every degree's roots from ``np.linalg.eigvals`` of the
    rows' companion matrices, 1 x 1 ones included."""
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
    poly = np.zeros((len(fix), 6))
    poly[:, 0] = 1.0
    for col, profile in enumerate((js.plus, js.minus)):
        if profile.is_odd:
            a, b = alpha[:, col:col + 1], beta[:, col:col + 1]
            poly = poly * (1 - a * a) - 2 * a * b * np.roll(poly, 1, axis=1) \
                - b * b * np.roll(poly, 2, axis=1)
    stationary = np.roll(poly * np.arange(6), -1, axis=1) - np.roll(poly, 1, axis=1)
    nonzero = stationary != 0
    finite = np.isfinite(stationary).all(axis=1)
    degree = np.where(finite & nonzero.any(axis=1),
                      5 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    candidates = np.zeros((len(fix), 6))
    for d in set(degree.tolist()) - {0}:
        rows = degree == d
        companion = np.zeros((rows.sum(), d, d))
        companion[:, 1:, :-1] = np.eye(d - 1)
        companion[:, :, -1] = -stationary[rows, :d] / stationary[rows, d:d + 1]
        roots = np.linalg.eigvals(companion).real
        candidates[rows, 1:d + 1] = t0[rows, None] + roots / scale[rows, None]
    x = fix[:, :, None] + slope[:, :, None] * candidates[:, None, :]
    peaks = np.abs(js.plus.corr(x[:, 0]) * js.minus.corr(x[:, 1])).max(axis=1)
    return np.where(vanishing, 0.0, np.where(finite, peaks, np.nan))


def spectrum_named(name, symmetry):
    if name in CLASS_SIGMAS:
        return make_spectrum(*CLASS_SIGMAS[name], symmetry)
    return dataclasses.replace(make_spectrum(1.0, 0.1, symmetry),
                               plus=SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 1.0))


#: Fixes of every kind a row can take: zero, ordinary, far past
#: ``_HERMITE_CAP`` and overflowing; and slopes as a model's arguments
#: hold them, multiples of 1/2 (zero among them), or any of a like size.
FIXES = st.one_of(
    st.just(0.0), st.floats(-40.0, 40.0), st.floats(-1e200, 1e200),
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]))
SLOPES = st.one_of(st.integers(-16, 16).map(lambda k: k / 2),
                   st.floats(1e-3, 8.0).flatmap(lambda s: st.sampled_from([s, -s])))


@given(symmetry=st.sampled_from(ExchangeSymmetry), spectrum=st.sampled_from(SPECTRA),
       rows=st.lists(st.tuples(FIXES, FIXES, SLOPES, SLOPES), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_degree_one_peaks_are_the_companion_peaks(symmetry, spectrum, rows):
    # Two Gaussians give every row degree 1; an odd factor gives degrees 3
    # and 5, and degree 1 where its slope is 0.
    js = spectrum_named(spectrum, symmetry)
    rows = np.array(rows).reshape(len(rows), 2, 2)
    fix, slope = rows[:, 0], rows[:, 1]
    with np.errstate(all="ignore"):
        expected = companion_peaks(js, fix, slope)
        assert corr_product_peaks(js, fix, slope).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_companion_column_gives_a_nan_peak():
    # The curvature underflows to 0, so the degree-3 row's leading
    # coefficient is tiny and -s_k / s_3 overflows: no roots, a NaN peak
    # and the row kept, as for an overflowing polynomial; the ordinary row
    # beside it keeps its peak.
    js = make_spectrum(*CLASS_SIGMAS["anticorrelated"], ExchangeSymmetry.ANTISYMMETRIC)
    fix = np.array([[0.0, 1.18e-156], [0.3, 1.0]])
    slope = np.array([[0.0, 1.49e-163], [1.0, 0.5]])
    peaks = corr_product_peaks(js, fix, slope)
    assert math.isnan(peaks[0])
    assert peaks[1:].tobytes() == corr_product_peaks(js, fix[1:], slope[1:]).tobytes()
    assert peaks[1] == pytest.approx(sampled_peak(js, fix[1], slope[1]), rel=1e-6)


@given(cascade=expand_cascades(), symmetry=st.sampled_from(ExchangeSymmetry),
       spectrum=st.sampled_from(SPECTRA), data=st.data())
@settings(max_examples=60, deadline=None)
def test_prune_keeps_the_companion_peaks_terms(cascade, symmetry, spectrum, data):
    # The kept terms are those of the companion-matrix peaks, in model
    # order, over the least scales.
    try:
        model = expand(compose(cascade), symmetry)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by
    js = spectrum_named(spectrum, symmetry)
    n = cascade.n_delays
    swept = data.draw(st.integers(0, n - 1))
    fixed = {i: data.draw(st.floats(-15.0, 15.0)) for i in range(n) if i != swept}
    threshold = data.draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.3]))
    coeffs, plus, minus, index = model.arrays
    args = np.stack([plus[index[:, 0]], minus[index[:, 1]]], axis=1)
    at_origin = [0.0 if i == swept else fixed[i] for i in range(n)]
    peaks = np.abs(coeffs) * companion_peaks(js, combo_dot(args, at_origin),
                                             args[:, :, swept])
    kept = np.flatnonzero(~(peaks < threshold) | (index < 0).all(axis=1)).tolist()
    pruned = asymptotic_prune(model, fixed, swept, js, threshold)
    assert pruned.terms == tuple(model.terms[k] for k in kept)
    assert pruned.coeff_scale == math.lcm(*(c.denominator for c, _, _ in pruned.terms))
    assert pruned.arg_scale == math.lcm(*(v.denominator for _, p, q in pruned.terms
                                          for v in p + q))


# Frozen pruned models of the shipped configs at their sweep's fixed
# delays, made by the scan-and-polish search that preceded the closed-form
# peaks: config -> ((term count, SHA-256 of render_text)
# at threshold 1e-6, the same at 1e-2).

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

HOMI = "fe426898f9078be4ba67aa76637c060d8640c673e74e4844c3d8c677861ccf9c"
NOON = "c5093d1293541d9974d3eeb39fc6ab1d45ec36f0d7d902422f61bbcd447a6c86"
TWO_11 = "f82fd8b23b9e4cb74f2e4042d5d4d1bcbe0e155db08a05025d567fb87dd871a0"
TWO_11_CUT = "63ccb7a20ab458d2c38cc5d9616c437b22f9d4310a0b30f42ce8c77000626ecd"
TWO_2002 = "cc8ec85ded8be42f9343cc1f867550a85fffef7e7197d0ae4922cc3c7b9864a9"
TWO_2002_CUT = "8e8e1700ea1a254689287751ee319d1b828094bfe854d1975d5ad3d6bdcb9797"

FROZEN_PRUNED = {
    "homi_anticorrelated": ((2, HOMI), (2, HOMI)),
    "homi_correlated": ((2, HOMI), (2, HOMI)),
    "homi_uncorrelated": ((2, HOMI), (2, HOMI)),
    "noon_anticorrelated": ((2, NOON), (2, NOON)),
    "noon_correlated": ((2, NOON), (2, NOON)),
    "noon_uncorrelated": ((2, NOON), (2, NOON)),
    "three_param_11_anticorrelated": (
        (20, "464fccb5ccdc28408cf153274c00064971e2ffe6c04ed65d8386b5ae5bd65612"),
        (18, "923ef88a49f9e326c61b4b4f73da7b5a1c8791f5716279783860dbb6f96da1f6")),
    "three_param_11_correlated": (
        (21, "f749e5e0f6ec202fa6360542eed57fb0ac92a8f9a43be51c392d48f37c5fffee"),
        (20, "30031cc6d1125f6f8d71059097731a6d53d7da83da5b8b3b936cf8ae22effd7c")),
    "three_param_11_uncorrelated": (
        (13, "c59eb7f5e7034e65069e3189c2484dd49d6516f54ee13f83c48f6e9d4fdb0bb6"),
        (11, "2f9d00fc1521929b29ddf286ebeb7f9bc48d7cda16ce7ae3db9d9daa0d6a9f91")),
    "three_param_2002_anticorrelated": (
        (21, "d2a2a834da2f0b35ea78ecefcbd82bc271b171ba81692899eb79c16f9d0d2aa4"),
        (20, "9304ae28703c875bb12e1cce6d92bdbef5411d3e5ad4cec940ace9c4fa7d329d")),
    "three_param_2002_correlated": (
        (20, "ce2e47c34e5e214c77c1b188331a5e8e2741003cfba0d0ff11bb4c15345105f7"),
        (18, "ee67cc43e411ef6aded7847f9c3bd9b0709be3b869647c8ca32f5b88e1164ef3")),
    "three_param_2002_uncorrelated": (
        (13, "c0eae7dae97b9a280bcc4e11ef19702c4eda7c2b37ed0736602ae344d62ddbbc"),
        (11, "54c6637c2a14832f806b6a669f50ca5bfbe907556b8316df341aa79d509cbafe")),
    "two_param_11_anticorrelated": ((6, TWO_11), (5, TWO_11_CUT)),
    "two_param_11_correlated": ((6, TWO_11), (6, TWO_11)),
    "two_param_11_uncorrelated": ((6, TWO_11), (5, TWO_11_CUT)),
    "two_param_2002_anticorrelated": ((6, TWO_2002), (6, TWO_2002)),
    "two_param_2002_correlated": ((6, TWO_2002), (5, TWO_2002_CUT)),
    "two_param_2002_uncorrelated": ((6, TWO_2002), (5, TWO_2002_CUT)),
}


@pytest.mark.parametrize("stem", sorted(FROZEN_PRUNED))
def test_frozen_pruned_config_models(stem):
    config = load_config(CONFIG_DIR / f"{stem}.cfg")
    model = expand(compose(config.cascade), config.spectrum.symmetry)
    for threshold, expected in zip((1e-6, 1e-2), FROZEN_PRUNED[stem]):
        pruned = asymptotic_prune(model, config.sweep.fixed, config.sweep.swept,
                                  config.spectrum, threshold)
        text = render_text(pruned)
        assert (len(pruned.terms), hashlib.sha256(text.encode()).hexdigest()) == expected


# The same configs rendered as LaTeX, made before the renderer read integer
# rows: config -> (SHA-256 of render_latex of the full model, the same of
# the model pruned at 1e-6).
HOMI_TEX = "9ecc2fb1a570c2a69dc29740544ddef5ad49af8cbe2ec4a32fec216f07b15200"
NOON_TEX = "3bd05e848e8dc58a4168f568e34aa46eafff996229083f84e22f7584ff3027d7"
TWO_11_TEX = "baf14902f0b1bef36eeff8b8a3365d963983ec41892ef2f5d10574f5bcb0a434"
TWO_2002_TEX = "bde0d81eeeb1259ba82e708f6d81f072f835e6e1d0ddf2eb0b3fb0747c041be9"
THREE_11_TEX = "6427cff9a258b95851c4c78f9583b39e9b5485fb73b7b3f9369025ebb17577a3"
THREE_2002_TEX = "568305d329506b03fa01b0437747f8a3762a07e4c18f5dc0d2e6098885f2d9a2"

FROZEN_LATEX = {
    "homi_anticorrelated": (HOMI_TEX, HOMI_TEX),
    "homi_correlated": (HOMI_TEX, HOMI_TEX),
    "homi_uncorrelated": (HOMI_TEX, HOMI_TEX),
    "noon_anticorrelated": (NOON_TEX, NOON_TEX),
    "noon_correlated": (NOON_TEX, NOON_TEX),
    "noon_uncorrelated": (NOON_TEX, NOON_TEX),
    "three_param_11_anticorrelated": (
        THREE_11_TEX,
        "466482248c22456e63a42150c50a3d7388cfbe0f272d934e144ee010880d8180"),
    "three_param_11_correlated": (
        THREE_11_TEX,
        "87fc3ac63a31574a9e8a46e575776cc3cf70e676787c05476a650cdf98d45874"),
    "three_param_11_uncorrelated": (
        THREE_11_TEX,
        "4d56be2033ddbcca75892d41c4e6ae045b5d1015453acad4a324cc80abead34f"),
    "three_param_2002_anticorrelated": (
        THREE_2002_TEX,
        "c0e31e7bc0f6ac3c78a945084df7b81ab4ea3962e6f25dbc16018f2bbf4c1565"),
    "three_param_2002_correlated": (
        THREE_2002_TEX,
        "1337a388448fd3a29a7ae621865956dc08461f07ce8bc731dc41d3c161df838c"),
    "three_param_2002_uncorrelated": (
        THREE_2002_TEX,
        "6fd68deea46ec9c23bf43112375c9017f9c784f6a5b7f673f0b759c48c60e516"),
    "two_param_11_anticorrelated": (TWO_11_TEX, TWO_11_TEX),
    "two_param_11_correlated": (TWO_11_TEX, TWO_11_TEX),
    "two_param_11_uncorrelated": (TWO_11_TEX, TWO_11_TEX),
    "two_param_2002_anticorrelated": (TWO_2002_TEX, TWO_2002_TEX),
    "two_param_2002_correlated": (TWO_2002_TEX, TWO_2002_TEX),
    "two_param_2002_uncorrelated": (TWO_2002_TEX, TWO_2002_TEX),
}


@pytest.mark.parametrize("stem", sorted(FROZEN_LATEX))
def test_frozen_latex_config_models(stem):
    config = load_config(CONFIG_DIR / f"{stem}.cfg")
    model = expand(compose(config.cascade), config.spectrum.symmetry)
    pruned = asymptotic_prune(model, config.sweep.fixed, config.sweep.swept,
                              config.spectrum, 1e-6)
    assert tuple(hashlib.sha256(render_latex(m).encode()).hexdigest()
                 for m in (model, pruned)) == FROZEN_LATEX[stem]


# ---------------------------------------------------------------------------
# Swap rule and fermionic indistinguishability

PRESET_PAIRS = [
    ("homi", "noon"),
    ("two_param_11", "two_param_2002"),
    ("three_param_11", "three_param_2002"),
]


@pytest.mark.parametrize("first,second", PRESET_PAIRS)
def test_swap_rule_maps_between_input_states(first, second):
    assert swap_rule(model_for(first)).terms == model_for(second).terms
    assert swap_rule(model_for(second)).terms == model_for(first).terms


@pytest.mark.parametrize("preset", [p for pair in PRESET_PAIRS for p in pair])
def test_swap_rule_is_an_involution(preset):
    model = model_for(preset)
    assert swap_rule(swap_rule(model)).terms == model.terms


@given(cascade=expand_cascades())
@settings(max_examples=60, deadline=None)
def test_leading_splitter_is_the_swap_rule(cascade):
    """A delay-free splitter placed first acts as swap_rule (symmetric spectra).

    Only when each delay labels at most one splitter and there is no input
    delay: e.g. [1, 0, 1] or an input delay breaks it.
    """
    # Built to hold: repeated labels become delay-free, the input delay goes.
    labels = [stage.delay_label for stage in cascade.stages]
    labels = [None if label in labels[:k] else label for k, label in enumerate(labels)]
    plain = CascadeConfig.from_labels(labels, cascade.n_delays)
    leading = CascadeConfig.from_labels([None] + labels, cascade.n_delays)
    symmetric = ExchangeSymmetry.SYMMETRIC
    try:
        model = expand(compose(plain), symmetric)
        swapped = expand(compose(leading), symmetric)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by, e.g. [-, 0, -]
    assert swapped.terms == swap_rule(model).terms


def test_leading_splitter_is_not_the_swap_rule_for_repeated_labels():
    cascade = CascadeConfig.from_labels([1, 0, 1], 2)
    leading = CascadeConfig.from_labels([None, 1, 0, 1], 2)
    symmetric = ExchangeSymmetry.SYMMETRIC
    assert expand(compose(leading), symmetric).terms != \
        swap_rule(expand(compose(cascade), symmetric)).terms


def model_or_none(config, symmetry):
    try:
        return expand(compose(config), symmetry)
    except ZeroBaselineError:
        return None


@given(cascade=expand_cascades(), symmetry=st.sampled_from(ExchangeSymmetry),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_two_delay_free_splitters_anywhere_change_nothing(cascade, symmetry, data):
    # Two delay-free splitters compose to twice the identity, which the
    # normalisation absorbs: same terms and the same raw baseline.
    labels = [stage.delay_label for stage in cascade.stages]
    at = data.draw(st.integers(0, len(labels)))
    padded = CascadeConfig.from_labels(labels[:at] + [None, None] + labels[at:],
                                       cascade.n_delays, cascade.input_delay)
    twin, model = model_or_none(padded, symmetry), model_or_none(cascade, symmetry)
    assert twin == model
    if model is not None:  # the exact views agree too, as the derive bench gates
        assert twin.terms == model.terms


@given(cascade=expand_cascades())
@settings(max_examples=40, deadline=None)
def test_leading_splitter_changes_nothing_for_antisymmetric_spectra(cascade):
    """The antisymmetric pair leaves a delay-free splitter unchanged.

    Without the input delay, which would reach that splitter first and
    break the pair's exchange antisymmetry.
    """
    plain = CascadeConfig(cascade.stages, cascade.n_delays)
    leading = CascadeConfig.from_labels(
        [None] + [stage.delay_label for stage in cascade.stages], cascade.n_delays)
    antisymmetric = ExchangeSymmetry.ANTISYMMETRIC
    assert model_or_none(leading, antisymmetric) == \
        model_or_none(plain, antisymmetric)


@pytest.mark.parametrize("first,second", PRESET_PAIRS)
def test_antisymmetric_pairs_are_identical(first, second):
    tm_a = compose(preset_cascade(first))
    tm_b = compose(preset_cascade(second))
    assert antisymmetric_equivalence_check(tm_a, tm_b)
    assert expand(tm_a, ExchangeSymmetry.ANTISYMMETRIC).terms == \
        expand(tm_b, ExchangeSymmetry.ANTISYMMETRIC).terms
    # For bosons the swap rule flips signs: the same pair differs both ways.
    symmetric_a, symmetric_b = (expand(tm, ExchangeSymmetry.SYMMETRIC)
                                for tm in (tm_a, tm_b))
    assert symmetric_a != symmetric_b
    assert symmetric_a.terms != symmetric_b.terms


def test_antisymmetric_homi_is_a_peak():
    model = model_for("homi", ExchangeSymmetry.ANTISYMMETRIC)
    assert frozenset(model.terms) == frozenset(
        [term(1, (0,), (0,)), term(1, (0,), (1,))]
    )


# ---------------------------------------------------------------------------
# Integer terms and their exact Fraction view

def test_model_scales_are_in_lowest_terms():
    symmetric = ExchangeSymmetry.SYMMETRIC
    # terms (16, (0, 0), (0, 0)), (-4, (2, 0), (4, 6)) and (6, (4, 4), (0, 0))
    model = AnalyticModel.from_rows(
        (16, -4, 6), ((0, 0), (2, 0), (4, 4), (4, 6)), ((0, 1, 2), (0, 3, 0)), 2,
        symmetric, coeff_scale=16, arg_scale=4)
    assert (model.coeffs, model.coeff_scale) == ((8, -2, 3), 8)
    assert (model.plus, model.minus, model.arg_scale) == \
        (((0, 0), (1, 0), (2, 2)), ((0, 0), (2, 3), (0, 0)), 2)
    assert model.constant == 1
    assert model.terms == (term(1, (0, 0), (0, 0)),
                           term("-1/4", ("1/2", 0), (1, "3/2")),
                           term("3/8", (1, 1), (0, 0)))
    assert model.plus[0] is model.minus[0] is model.minus[2]  # one tuple per row
    whole = AnalyticModel.from_rows((8, -2), ((0,), (2,), (4,)), ((0, 1), (0, 2)), 1,
                                    symmetric, coeff_scale=8, arg_scale=2)
    assert (whole.coeffs, whole.coeff_scale, whole.plus, whole.minus,
            whole.arg_scale) == ((4, -1), 4, ((0,), (1,)), ((0,), (2,)), 1)
    assert whole.terms == (term(1, (0,), (0,)), term("-1/4", (1,), (2,)))


@given(cascade=expand_cascades(), symmetry=st.sampled_from(ExchangeSymmetry),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_rational_view_round_trips_over_least_scales(cascade, symmetry, data):
    try:
        model = expand(compose(cascade), symmetry)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by
    js = make_spectrum(1.0, 0.1, symmetry)
    n = cascade.n_delays
    swept = data.draw(st.integers(0, n - 1))
    delay = st.floats(-15.0, 15.0, allow_nan=False)
    fixed = {i: data.draw(delay) for i in range(n) if i != swept}
    threshold = data.draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.3]))
    pruned = asymptotic_prune(model, fixed, swept, js, threshold)
    for m in (model, swap_rule(model), pruned):
        assert m.coeff_scale == math.lcm(*(c.denominator for c, _, _ in m.terms))
        assert m.arg_scale == math.lcm(*(v.denominator for _, p, q in m.terms
                                         for v in p + q))
        assert math.gcd(m.coeff_scale, *m.coeffs) == 1
        assert math.gcd(m.arg_scale, *chain(*m.plus, *m.minus)) == 1
    assert swap_rule(swap_rule(model)) == model


def test_integer_consumers_leave_the_rational_view_unbuilt(monkeypatch):
    read = []  # every model whose exact view is asked for
    monkeypatch.setattr(AnalyticModel, "terms", property(read.append))
    model = model_for("three_param_2002")
    js = make_spectrum(1.0, 0.1)
    fixed = {0: 8.0, 1: 22.0}
    render_text(model)
    render_latex(model)
    pruned = asymptotic_prune(model, fixed, 2, js, 1e-6)
    evaluate(model, js, [8.0, 22.0, np.linspace(-40.0, 40.0, 101)])
    spec = SweepSpec(fixed=fixed, swept=2, start=-40.0, stop=40.0, samples=101)
    envelopes_analytic(model, js, spec)
    swapped = swap_rule(model)
    assert model.constant == 1 and model == swap_rule(swapped)
    assert antisymmetric_equivalence_check(
        compose(preset_cascade("three_param_11")),
        compose(preset_cascade("three_param_2002")))
    config = str(CONFIG_DIR / "three_param_2002_correlated.cfg")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["derive", "--prune", "--latex", "--config", config]) == 0
    assert out.getvalue().endswith("terms: 20\n")
    assert read == []
    assert all("terms" not in vars(m) for m in (model, pruned, swapped))
    monkeypatch.undo()
    assert len(model.terms) == 28 and "terms" in vars(model)  # built when asked for


def test_one_float_view_is_built_once_and_shared(monkeypatch):
    built = []
    compile_model = analytic._compile_model

    def counting(model):
        built.append(model)
        return compile_model(model)

    monkeypatch.setattr(analytic, "_compile_model", counting)
    model = model_for("three_param_2002")
    js = make_spectrum(1.0, 0.1)
    spec = SweepSpec(fixed={0: 8.0, 1: 22.0}, swept=2, start=-40.0, stop=40.0,
                     samples=101)
    pruned = asymptotic_prune(model, spec.fixed, spec.swept, js, 1e-6)
    evaluate(model, js, spec.delay_vectors(3))
    envelopes_analytic(model, js, spec)
    assert built == [model]
    coeffs, plus, minus, index = model.arrays
    assert built == [model]
    assert coeffs.shape == (28,) and index.shape == (28, 2)
    assert not (plus[-1].any() or minus[-1].any())  # the zero row, last
    for array in model.arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    evaluate(pruned, js, [8.0, 22.0, 3.0])
    assert built == [model, pruned]


# ---------------------------------------------------------------------------
# Evaluation and rendering

def test_evaluate_limits():
    js = make_spectrum(1.0, 1.0)
    assert evaluate(model_for("homi"), js, [0.0]) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(model_for("noon"), js, [0.0]) == pytest.approx(2.0, abs=1e-15)
    assert evaluate(model_for("three_param_11"), js, [0.0, 0.0, 0.0]) == \
        pytest.approx(0.0, abs=1e-14)
    # far from all structures every oscillating term dies off
    assert evaluate(model_for("three_param_11"), js, [100.0, 300.0, 700.0]) == \
        pytest.approx(1.0, abs=1e-12)


def term_by_term(model, js, taus):
    """R_N summed term by term, each argument a dot product of all delays."""
    delays = np.stack(np.broadcast_arrays(*taus))
    total = 0.0
    for coeff, plus_arg, minus_arg in model.terms:
        p = np.array([float(c) for c in plus_arg]) @ delays
        m = np.array([float(c) for c in minus_arg]) @ delays
        carrier = np.cos(js.pump_frequency * p) * js.plus.corr(p) \
            if any(plus_arg) else 1.0
        envelope = js.minus.corr(m) if any(minus_arg) else 1.0
        total = total + float(coeff) * carrier * envelope
    return total


@st.composite
def cascades(draw):
    n_delays = draw(st.integers(1, 3))
    label = st.none() | st.integers(0, n_delays - 1)
    labels = draw(st.lists(label, min_size=1, max_size=5))
    return CascadeConfig.from_labels(labels, n_delays)


@given(
    cascade=cascades(),
    symmetry=st.sampled_from(ExchangeSymmetry),
    class_name=st.sampled_from(sorted(CLASS_SIGMAS)),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_evaluate_matches_term_by_term_sum(cascade, symmetry, class_name, data):
    try:
        model = expand(compose(cascade), symmetry)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by
    js = make_spectrum(*CLASS_SIGMAS[class_name], symmetry)
    n = cascade.n_delays
    delay = st.floats(-15.0, 15.0, allow_nan=False)
    taus = [data.draw(delay) for _ in range(n)]
    assert evaluate(model, js, taus) == pytest.approx(
        term_by_term(model, js, taus), abs=1e-12
    )
    swept = data.draw(st.integers(0, n - 1))
    spec = SweepSpec(fixed={i: t for i, t in enumerate(taus) if i != swept},
                     swept=swept, start=-15.0, stop=15.0, samples=301)
    trace = sweep(AnalyticBackend(model, js), spec)
    np.testing.assert_allclose(
        trace.values, term_by_term(model, js, spec.delay_vectors(n)),
        rtol=0, atol=1e-12,
    )
    env = envelopes_analytic(model, js, spec)
    assert np.all(trace.values <= env.upper.values + 1e-9)
    assert np.all(trace.values >= env.lower.values - 1e-9)


def test_render_text_single_delay():
    assert render_text(model_for("homi")) == "1 - g-(t1)"
    assert render_text(model_for("noon")) == "1 + g+(t1)"


def test_render_latex_mentions_all_terms():
    latex = render_latex(model_for("two_param_2002"))
    assert latex.count("g_") == 6  # five oscillating terms, one a product
    assert "\\tau_{1}" in latex and "\\tau_{2}" in latex


def test_raw_baseline_scaling():
    # The baseline before normalization, R(taus -> inf) with its 1/2^(2n)
    # factor, is the large-delay constant over 4^n: the sum of squared
    # merged path amplitudes, half of which interfere away.
    for name in ("homi", "two_param_11", "three_param_11"):
        tm = compose(preset_cascade(name))
        constant = tm.large_delay_constant(int(ExchangeSymmetry.SYMMETRIC))
        assert constant / 4 ** tm.stage_count == 0.5


# ---------------------------------------------------------------------------
# Blocked evaluation against the per-term loop it replaced

def reference_evaluate(model, js, taus):
    """evaluate as a loop over terms on whole arrays (before blocking), with
    exp and the carrier on every lane."""
    total = 0.0
    for coeff, plus_arg, minus_arg in model.terms:
        value = float(coeff)
        if any(plus_arg):
            arg = combo_dot(plus_arg, taus)
            value = value * np.cos(js.pump_frequency * arg) * plain_corr(js.plus, arg)
        if any(minus_arg):
            arg = combo_dot(minus_arg, taus)
            value = value * plain_corr(js.minus, arg)
        total = total + value
    return total


def reference_envelopes(model, js, taus):
    """envelopes_analytic at the delays ``taus`` as a loop over terms on
    whole arrays, with exp on every lane: (upper, lower)."""
    shape = np.broadcast_shapes(*(np.shape(t) for t in taus))
    base = np.zeros(shape)
    swing = np.zeros(shape)
    for coeff, plus_arg, minus_arg in model.terms:
        value = float(coeff) * np.ones(shape)
        if any(minus_arg):
            value = value * plain_corr(js.minus, combo_dot(minus_arg, taus))
        if not any(plus_arg):
            base = base + value
        else:
            swing = swing + np.abs(value * plain_corr(js.plus, combo_dot(plus_arg, taus)))
    return base + swing, base - swing


def assert_same_bits(actual, expected):
    actual = np.asarray(actual)
    expected = np.broadcast_to(np.asarray(expected, dtype=float), actual.shape)
    assert actual.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()


def assert_blocked_matches_reference(model, js, taus, swept, samples):
    value = evaluate(model, js, taus)
    assert np.shape(value) == ()
    assert_same_bits(value, reference_evaluate(model, js, taus))
    spec = SweepSpec(fixed={i: t for i, t in enumerate(taus) if i != swept},
                     swept=swept, start=-15.0, stop=15.0, samples=samples)
    delays = spec.delay_vectors(model.n_delays)
    assert_same_bits(evaluate(model, js, delays), reference_evaluate(model, js, delays))
    env = envelopes_analytic(model, js, spec)
    upper, lower = reference_envelopes(model, js, delays)
    assert_same_bits(env.upper.values, upper)
    assert_same_bits(env.lower.values, lower)
    trace, env = analytic_sweep(model, js, spec)
    assert_same_bits(trace.values, reference_evaluate(model, js, delays))
    assert_same_bits(env.upper.values, upper)
    assert_same_bits(env.lower.values, lower)


@given(
    cascade=cascades(),
    symmetry=st.sampled_from(ExchangeSymmetry),
    class_name=st.sampled_from(sorted(CLASS_SIGMAS)),
    samples=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_blocked_evaluation_is_bit_identical(cascade, symmetry, class_name,
                                            samples, data):
    """Blocks, shared arguments and scalar rows change no bit of any value.

    Scalar delays, sweeps over any delay (not only the last) with sample
    counts around the block size, and 2-D broadcast delays.
    """
    try:
        model = expand(compose(cascade), symmetry)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by
    js = make_spectrum(*CLASS_SIGMAS[class_name], symmetry)
    n = cascade.n_delays
    delay = st.floats(-15.0, 15.0, allow_nan=False)
    taus = [data.draw(delay) for _ in range(n)]
    swept = data.draw(st.integers(0, n - 1))
    assert_blocked_matches_reference(model, js, taus, swept, samples)
    # Rows of 229 samples: blocks end inside rows of the flat order.
    crossed = list(taus)
    crossed[swept] = np.linspace(-15.0, 15.0, 37)[:, None]
    crossed[data.draw(st.integers(0, n - 1))] = np.linspace(-9.0, 9.0, 229)[None, :]
    value = evaluate(model, js, crossed)
    assert value.shape == np.broadcast_shapes(*(np.shape(t) for t in crossed))
    assert_same_bits(value, reference_evaluate(model, js, crossed))


@pytest.mark.parametrize("symmetry", ExchangeSymmetry)
@pytest.mark.parametrize("preset", PRESETS)
def test_underflowed_tails_change_no_bit(preset, symmetry):
    """Over +-400 most lanes of every argument underflow: skipping their exp
    and their carrier changes no bit of evaluate or envelopes_analytic.
    A carrier phase that overflows keeps its NaN on underflowed lanes."""
    model = model_for(preset, symmetry)
    fixed = dict(enumerate([8.0, 22.0][:model.n_delays - 1]))
    spec = SweepSpec(fixed=fixed, swept=model.n_delays - 1, start=-400.0,
                     stop=400.0, samples=2 * CHUNK + 1)
    delays = spec.delay_vectors(model.n_delays)
    for sigmas in CLASS_SIGMAS.values():
        js = make_spectrum(*sigmas, symmetry)
        assert_same_bits(evaluate(model, js, delays),
                         reference_evaluate(model, js, delays))
        env = envelopes_analytic(model, js, spec)
        upper, lower = reference_envelopes(model, js, delays)
        assert_same_bits(env.upper.values, upper)
        assert_same_bits(env.lower.values, lower)
        if any(map(any, model.plus)):  # a carrier to overflow
            loud = dataclasses.replace(js, pump_frequency=1e306)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = reference_evaluate(model, loud, delays)
            assert np.isnan(expected).any()
            assert_same_bits(evaluate(model, loud, delays), expected)


@pytest.mark.parametrize("preset", [p for p in PRESETS if preset_cascade(p).n_delays > 1])
def test_non_finite_scalar_delays_match_the_reference(preset):
    """An infinite or NaN delay adds nothing to a row whose coefficient
    there is zero, as in the per-term reference: evaluate at such scalar
    delays has the reference's bits, and warns of nothing."""
    for symmetry in ExchangeSymmetry:
        model = model_for(preset, symmetry)
        for sigmas in CLASS_SIGMAS.values():
            js = make_spectrum(*sigmas, symmetry)
            for slot in range(model.n_delays):
                for bad in (np.inf, -np.inf, np.nan):
                    taus = [3.0, -7.5, 11.0][:model.n_delays]
                    taus[slot] = bad
                    with np.errstate(invalid="ignore"):  # cos(inf) in the reference
                        expected = reference_evaluate(model, js, taus)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        assert_same_bits(evaluate(model, js, taus), expected)
    # two_param_11's one plus row reads t2 only: at an infinite t1 the
    # value is its limit there.
    model, js = model_for("two_param_11"), make_spectrum(1.0, 1.0)
    assert evaluate(model, js, [np.inf, 1.0]) == evaluate(model, js, [1e300, 1.0]) \
        == 1.4270224709406008


@pytest.mark.parametrize("symmetry", ExchangeSymmetry)
@pytest.mark.parametrize("preset", PRESETS)
def test_sweeps_over_three_blocks_match_the_references(preset, symmetry):
    """analytic_sweep over 3 CHUNK + 1 samples of +-80, each delay swept in
    turn: every swept row is rebuilt per block from its fold and a slope
    product shared with the rows of its slope, on four blocks, the last
    of one sample."""
    model = model_for(preset, symmetry)
    fixed = [8.0, 22.0, 5.0][:model.n_delays]
    for swept in range(model.n_delays):
        spec = SweepSpec(fixed={i: t for i, t in enumerate(fixed) if i != swept},
                         swept=swept, start=-80.0, stop=80.0, samples=3 * CHUNK + 1)
        delays = spec.delay_vectors(model.n_delays)
        for sigmas in CLASS_SIGMAS.values():
            js = make_spectrum(*sigmas, symmetry)
            trace, env = analytic_sweep(model, js, spec)
            assert_same_bits(trace.values, reference_evaluate(model, js, delays))
            upper, lower = reference_envelopes(model, js, delays)
            assert_same_bits(env.upper.values, upper)
            assert_same_bits(env.lower.values, lower)


@given(cascade=expand_cascades(), symmetry=st.sampled_from(ExchangeSymmetry),
       data=st.data())
@settings(max_examples=8, deadline=None)
def test_dead_blocks_change_no_bit(cascade, symmetry, data):
    """Over +-400 whole blocks of a swept row are exactly 0: skipping them
    changes no bit of the values or the envelopes.

    The ascending grid through every caller; through evaluate and the
    envelope walk, the grid reversed, a 2-D column of it, NaN and the
    infinities planted in blocks that are otherwise dead, two array
    delays, where nothing is skipped, and one sample, which takes the same
    envelope fold.  Every fold is lane by lane, so the reference over the
    ascending grid, reversed or reshaped, is the reference over the other
    two.
    """
    try:
        model = expand(compose(cascade), symmetry)
    except ZeroBaselineError:
        assume(False)  # nothing to normalize by
    n = cascade.n_delays
    taus = [data.draw(st.floats(-15.0, 15.0, allow_nan=False)) for _ in range(n)]
    swept = data.draw(st.integers(0, n - 1))
    spec = SweepSpec(fixed={i: t for i, t in enumerate(taus) if i != swept},
                     swept=swept, start=-400.0, stop=400.0, samples=3 * CHUNK + 1)
    delays = spec.delay_vectors(n)
    grid = delays[swept]

    def with_swept(value):
        return [value if i == swept else t for i, t in enumerate(delays)]

    def walked(taus):
        return evaluate(model, js, taus), *analytic.walk(model, js, taus, False, True)[1:]

    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        values = grid.copy()
        values[[CHUNK // 2, CHUNK + CHUNK // 2]] = bad
        cases.append(with_swept(values))
    if n > 1:  # a second array delay: no row is skipped
        cases.append(list(delays))
        cases[-1][(swept + 1) % n] = grid[::-1] / 3
    cases.append(with_swept(taus[swept]))
    for sigmas in CLASS_SIGMAS.values():
        js = make_spectrum(*sigmas, symmetry)
        expected = reference_evaluate(model, js, delays)
        upper, lower = reference_envelopes(model, js, delays)
        assert_same_bits(sweep(AnalyticBackend(model, js), spec).values, expected)
        env = envelopes_analytic(model, js, spec)
        assert_same_bits(env.upper.values, upper)
        assert_same_bits(env.lower.values, lower)
        trace, env = analytic_sweep(model, js, spec)
        assert_same_bits(trace.values, expected)
        assert_same_bits(env.upper.values, upper)
        assert_same_bits(env.lower.values, lower)
        for order in (slice(None, None, -1), (slice(None), None)):
            for got, want in zip(walked(with_swept(grid[order])), (expected, upper, lower)):
                assert_same_bits(got, np.broadcast_to(want, grid.shape)[order])
        for case in cases:
            with np.errstate(invalid="ignore"):
                want = reference_evaluate(model, js, case), *reference_envelopes(model, js, case)
            for got, expect in zip(walked(case), want):
                assert_same_bits(got, expect)


README_CHAIN = CascadeConfig.from_labels([0, 1, 2, 3], 4)
README_SWEEP = SweepSpec(fixed={0: 3.0, 1: 10.0, 2: 17.0}, swept=3,
                         start=-80.0, stop=80.0, samples=100_001)


def test_dead_blocks_are_skipped(monkeypatch):
    """On the README's 179-term 4-delay sweep, corr runs once per side at
    the fixed delays and then once per swept row and block, except where
    the row is exactly 0 on every lane of the block: 153 of 1170 pairs."""
    model = expand(compose(README_CHAIN), ExchangeSymmetry.SYMMETRIC)
    js = make_spectrum(1.0, 0.1)
    taus = README_SWEEP.delay_vectors(4)
    _, plus, minus, _ = model.arrays
    blocks = range(0, README_SWEEP.samples, CHUNK)
    rows = [args[args[:, 3] != 0] for args in (plus, minus)]
    # Blocks of CHUNK samples: a plus row holds its argument and its carrier.
    assert (2 * len(rows[0]) + len(rows[1])) * CHUNK <= analytic._ROW_BUDGET
    pairs = dead = 0
    for profile, swept in zip((js.plus, js.minus), rows):
        for row in swept:
            g = plain_corr(profile, combo_dot(row.tolist(), taus))
            pairs += len(blocks)
            dead += sum(not g[b:b + CHUNK].any() for b in blocks)
    assert dead > 0.1 * pairs
    calls = []
    corr = SpectralProfile.corr

    def counting(profile, tau):
        calls.append(np.shape(tau))
        return corr(profile, tau)

    monkeypatch.setattr(SpectralProfile, "corr", counting)
    evaluate(model, js, taus)
    assert len(calls) == 2 + pairs - dead


#: SHA-256 of the sweep values and the upper and lower envelopes of
#: ``README_SWEEP``, per symmetry and correlation class, as evaluated before
#: dead blocks were skipped.
FROZEN_SWEEP_BITS = {
    ("SYMMETRIC", "anticorrelated"):
        "1b5580b8d5b817520cddf3f4056dcd69e59752c7c4b9d1a2955874e3a2a5102e",
    ("SYMMETRIC", "correlated"):
        "d7c18a4abab21a5356eb79a48ce4010d9feed646f0a29245d6aa737e65bac511",
    ("SYMMETRIC", "uncorrelated"):
        "0a886228dc12c8353f9a8f0dff628a31bd4ba543e65ed3b4e0b808b10c6f3537",
    ("ANTISYMMETRIC", "anticorrelated"):
        "d78578e5f8a498919f182ffec9b63229fcd242ce95613448b70bc455e90b9bce",
    ("ANTISYMMETRIC", "correlated"):
        "bd64c9e3e604a07483267aed41c32a6c8b2f6259fbc22243a1fd469cb4638757",
    ("ANTISYMMETRIC", "uncorrelated"):
        "c8628a5b477926b6b0e5f417166835f810987280c0a7395415fcde9f125bec87",
}


@pytest.mark.parametrize("symmetry", ExchangeSymmetry)
def test_frozen_bench_scale_sweep_bits(symmetry):
    """sweep with envelopes_analytic, and analytic_sweep, give the frozen
    bits of 100 001 samples of the README's 4-delay chain."""
    model = expand(compose(README_CHAIN), symmetry)
    for name, sigmas in sorted(CLASS_SIGMAS.items()):
        js = make_spectrum(*sigmas, symmetry)
        trace = sweep(AnalyticBackend(model, js), README_SWEEP)
        env = envelopes_analytic(model, js, README_SWEEP)
        for trace, env in ((trace, env), analytic_sweep(model, js, README_SWEEP)):
            digest = hashlib.sha256()
            for values in (trace.values, env.upper.values, env.lower.values):
                digest.update(values.tobytes())
            assert digest.hexdigest() == FROZEN_SWEEP_BITS[symmetry.name, name]


def test_blocks_shrink_to_the_row_budget(monkeypatch):
    """A model whose argument rows pass the budget is walked in short blocks."""
    model = model_for("three_param_2002")
    js = make_spectrum(1.0, 0.1)
    monkeypatch.setattr(analytic, "_ROW_BUDGET", 1000)
    taus = [np.asarray(8.0), np.asarray(22.0), np.linspace(-80.0, 80.0, 1001)]
    blocks = [block for block, *_ in analytic._blocks(model, js, taus, (1001,), True)]
    assert 1 < len(blocks) and all(b.stop - b.start < CHUNK for b in blocks)
    assert_blocked_matches_reference(model, js, [8.0, 22.0, 3.0], 1, 1001)
    assert_blocked_matches_reference(model, js, [8.0, 22.0, 3.0], 2, 1001)


def test_blocked_evaluation_memory_is_bounded():
    """Traced peak allocation over 10^6 samples of a 179-term 4-delay model.

    The per-term loop held several sweep-length temporaries at once:
    38 MiB for evaluate and 69 MiB for envelopes_analytic here.  Blocks
    hold one block's argument rows, so the peak is the outputs (the grid
    and one to three result arrays, 7.6 MiB each) plus about 15 MiB.
    evaluate holds at most that one block beyond its result: each row is
    dropped as the next block's is built (a list of per-term factors kept
    the last block's rows alive, 17.4 MiB against 12.7 MiB).
    envelopes_analytic peaks in its walk, not in EnvelopePair's order check
    after it: checked block by block, that adds at most one block's sum and
    mask (9 bytes a sample) to memory the walk has freed, where a check on
    whole arrays peaked 3.4 MiB above the walk.
    """
    model = expand(compose(CascadeConfig.from_labels([0, 1, 2, 3], 4)),
                   ExchangeSymmetry.SYMMETRIC)
    js = make_spectrum(1.0, 0.1)
    spec = SweepSpec(fixed={1: 12.0, 2: 19.0, 3: 26.0}, swept=0,
                     start=-80.0, stop=80.0, samples=10**6)
    taus = spec.delay_vectors(4)
    _, plus, minus, _ = model.arrays
    swept_rows = 2 * int((plus[:, 0] != 0).sum()) + int((minus[:, 0] != 0).sum())
    block = swept_rows * CHUNK * 8  # one block's argument rows, in bytes
    mib = 2**20

    def envelope_walk(model, js, spec):
        return analytic.walk(model, js, spec.delay_vectors(4), False, True)

    peaks = {}
    for call, args, outputs in ((evaluate, (model, js, taus), 1),
                                (envelope_walk, (model, js, spec), 3),
                                (envelopes_analytic, (model, js, spec), 3),
                                (analytic_sweep, (model, js, spec), 4)):
        tracemalloc.start()
        try:
            call(*args)
            peak = peaks[call] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs * 8 * 10**6 + 20 * mib, (call.__name__, peak / mib)
        if call is evaluate:
            assert peak < 8 * 10**6 + block + 2 * mib, (peak / mib, block / mib)
    assert peaks[envelopes_analytic] <= peaks[envelope_walk] + 9 * CHUNK, \
        (peaks[envelopes_analytic] / mib, peaks[envelope_walk] / mib)


def test_a_trace_and_its_envelopes_take_one_walk(monkeypatch, tmp_path):
    """The callers that want a trace and its analytic envelopes walk the
    terms once per sweep; envelope --numeric sweeps once and demodulates."""
    walks = []
    blocks = analytic._blocks

    def counting(*args):
        walks.append(args)
        return blocks(*args)

    def count(run):
        walks.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            run()
        return len(walks)

    monkeypatch.setattr(analytic, "_blocks", counting)
    config = str(CONFIG_DIR / "two_param_2002_correlated.cfg")
    for numeric in ([], ["--numeric"]):
        argv = ["envelope", *numeric, "--config", config, "--out", str(tmp_path / "e.csv")]
        assert count(lambda: cli.main(argv)) == 1
    fig = next(f for f in figures.FIGURES if any(map(any, model_for(f.preset).plus)))
    assert count(lambda: figures._figure_trace(fig, CLASS_SIGMAS["correlated"])) == 1
    assert count(lambda: validation._check_envelopes(None, False)) == 2 * len(CLASS_SIGMAS)
    demo = Path(__file__).resolve().parents[1] / "demos" / "03_envelopes_and_reconstruction.py"
    assert count(lambda: runpy.run_path(str(demo))) == 1
