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
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton_cascade import analytic, cli
from biphoton_cascade.analytic import (
    CHUNK,
    AnalyticModel,
    CosTerm,
    ZeroBaselineError,
    _corr_product_peaks,
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
    envelopes_analytic,
    sweep,
)
from biphoton_cascade.presets import CLASS_SIGMAS, PRESETS, make_spectrum, preset_cascade
from biphoton_cascade.spectra import ExchangeSymmetry, ProfileKind, SpectralProfile
from test_expand import cascades as expand_cascades
from test_spectra import plain_corr

F = Fraction


def term(coeff, plus_arg, minus_arg):
    return CosTerm(
        coeff=F(coeff),
        plus_arg=tuple(F(c) for c in plus_arg),
        minus_arg=tuple(F(c) for c in minus_arg),
    )


def model_for(preset, symmetry=ExchangeSymmetry.SYMMETRIC):
    return expand(compose(preset_cascade(preset)), symmetry)


def as_set(terms):
    return frozenset((t.coeff, t.plus_arg, t.minus_arg) for t in terms)


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
    assert as_set(model_for("homi").terms) == as_set(HOMI_FIXTURE)
    assert as_set(model_for("noon").terms) == as_set(NOON_FIXTURE)


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
    assert as_set(model_for("two_param_11").terms) == as_set(TWO_PARAM_11_FIXTURE)
    assert as_set(model_for("two_param_2002").terms) == \
        as_set(TWO_PARAM_2002_FIXTURE)


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
    assert as_set(model.terms) == as_set(THREE_PARAM_11_FIXTURE)


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
    assert as_set(pruned.terms) == as_set(THREE_PARAM_PRUNED_FIXTURE)


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
        overflowing = {t for t in model.terms
                       if not np.isfinite(combo_dot(t.plus_arg, at_origin))
                       or not np.isfinite(combo_dot(t.minus_arg, at_origin))}
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
    assert dropped == {t for t in model.terms
                       if (t.plus_arg[0] and not t.plus_arg[1])
                       or (t.minus_arg[0] and not t.minus_arg[1])}
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
    terms = [t for t in model.terms if any(t.plus_arg) or any(t.minus_arg)]
    args = np.array([(t.plus_arg, t.minus_arg) for t in terms],
                    dtype=float).reshape(len(terms), 2, n)
    fix, slope = args @ np.array(at_origin), args[:, :, swept]
    peaks = _corr_product_peaks(js, fix, slope)
    for peak, f, s in zip(peaks, fix, slope):
        sampled = sampled_peak(js, f, s)
        # Never below the sample, up to rounding in evaluating the factors,
        # so pruning on the peak drops nothing that matters.
        assert peak >= sampled * (1 - 1e-12)
        assert peak == pytest.approx(sampled, rel=1e-6, abs=1e-300)


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
    assert model_or_none(padded, symmetry) == model_or_none(cascade, symmetry)


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


def test_antisymmetric_homi_is_a_peak():
    model = model_for("homi", ExchangeSymmetry.ANTISYMMETRIC)
    assert as_set(model.terms) == as_set(
        [term(1, (0,), (0,)), term(1, (0,), (1,))]
    )


# ---------------------------------------------------------------------------
# Integer terms and their rational CosTerm view

def test_model_scales_are_in_lowest_terms():
    symmetric = ExchangeSymmetry.SYMMETRIC
    model = AnalyticModel.from_terms(
        [term(1, (0, 0), (0, 0)), term("-1/4", ("1/2", 0), (1, "3/2")),
         term("3/8", (1, 1), (0, 0))], 2, symmetric)
    assert (model.coeffs, model.coeff_scale) == ((8, -2, 3), 8)
    assert (model.plus, model.minus, model.arg_scale) == \
        (((0, 0), (1, 0), (2, 2)), ((0, 0), (2, 3), (0, 0)), 2)
    assert model.constant == 1
    whole = AnalyticModel.from_rows((8, -2), ((0,), (2,)), ((0,), (4,)), 1,
                                    symmetric, coeff_scale=8, arg_scale=2)
    assert (whole.coeffs, whole.coeff_scale, whole.plus, whole.minus,
            whole.arg_scale) == ((4, -1), 4, ((0,), (1,)), ((0,), (2,)), 1)
    assert whole == AnalyticModel.from_terms(
        [term(1, (0,), (0,)), term("-1/4", (1,), (2,))], 1, symmetric)
    rebased = dataclasses.replace(whole, raw_baseline=F(7))
    assert rebased != whole and rebased.same_terms(whole)


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
        assert AnalyticModel.from_terms(m.terms, m.n_delays, m.symmetry,
                                        m.raw_baseline) == m
        assert m.coeff_scale == math.lcm(*(t.coeff.denominator for t in m.terms))
        assert m.arg_scale == math.lcm(*(c.denominator for t in m.terms
                                         for c in t.plus_arg + t.minus_arg))
        assert math.gcd(m.coeff_scale, *m.coeffs) == 1
        assert math.gcd(m.arg_scale, *chain(*m.plus, *m.minus)) == 1
    assert swap_rule(swap_rule(model)) == model


def test_integer_consumers_leave_the_rational_view_unbuilt(monkeypatch):
    made = []
    build = CosTerm.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(CosTerm, "__init__", counted)
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
    assert model.constant == 1 and model.same_terms(swap_rule(swapped))
    assert antisymmetric_equivalence_check(
        compose(preset_cascade("three_param_11")),
        compose(preset_cascade("three_param_2002")))
    config = str(CONFIG_DIR / "three_param_2002_correlated.cfg")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["derive", "--prune", "--latex", "--config", config]) == 0
    assert out.getvalue().endswith("terms: 20\n")
    assert made == []
    assert all("terms" not in vars(m) for m in (model, pruned, swapped))
    assert len(model.terms) == len(made) == 28  # built when asked for


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
    for t in model.terms:
        p = np.array([float(c) for c in t.plus_arg]) @ delays
        m = np.array([float(c) for c in t.minus_arg]) @ delays
        carrier = np.cos(js.pump_frequency * p) * js.plus.corr(p) \
            if any(t.plus_arg) else 1.0
        envelope = js.minus.corr(m) if any(t.minus_arg) else 1.0
        total = total + float(t.coeff) * carrier * envelope
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
    # constant = 2^(2n) * sum of squared path amplitudes / normalization;
    # for the (n+1)-splitter |2002> chains half the paths interfere away.
    assert model_for("homi").raw_baseline == F(1, 2)
    assert model_for("two_param_11").raw_baseline == F(1, 2)
    assert model_for("three_param_11").raw_baseline == F(1, 2)


# ---------------------------------------------------------------------------
# Blocked evaluation against the per-term loop it replaced

def reference_evaluate(model, js, taus):
    """evaluate as a loop over terms on whole arrays (before blocking), with
    exp and the carrier on every lane."""
    total = 0.0
    for t in model.terms:
        value = float(t.coeff)
        if any(t.plus_arg):
            arg = combo_dot(t.plus_arg, taus)
            value = value * np.cos(js.pump_frequency * arg) * plain_corr(js.plus, arg)
        if any(t.minus_arg):
            arg = combo_dot(t.minus_arg, taus)
            value = value * plain_corr(js.minus, arg)
        total = total + value
    return total


def reference_envelopes(model, js, spec):
    """envelopes_analytic as a loop over terms on whole arrays, with exp on
    every lane: (upper, lower)."""
    taus = spec.delay_vectors(model.n_delays)
    grid = spec.grid()
    base = np.zeros_like(grid)
    swing = np.zeros_like(grid)
    for t in model.terms:
        value = float(t.coeff) * np.ones_like(grid)
        if any(t.minus_arg):
            value = value * plain_corr(js.minus, combo_dot(t.minus_arg, taus))
        if not any(t.plus_arg):
            base = base + value
        else:
            swing = swing + np.abs(value * plain_corr(js.plus, combo_dot(t.plus_arg, taus)))
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
    upper, lower = reference_envelopes(model, js, spec)
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
        upper, lower = reference_envelopes(model, js, spec)
        assert_same_bits(env.upper.values, upper)
        assert_same_bits(env.lower.values, lower)
        if any(map(any, model.plus)):  # a carrier to overflow
            loud = dataclasses.replace(js, pump_frequency=1e306)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = reference_evaluate(model, loud, delays)
            assert np.isnan(expected).any()
            assert_same_bits(evaluate(model, loud, delays), expected)


def test_blocks_shrink_to_the_row_budget(monkeypatch):
    """A model whose argument rows pass the budget is walked in short blocks."""
    model = model_for("three_param_2002")
    js = make_spectrum(1.0, 0.1)
    monkeypatch.setattr(analytic, "_ROW_BUDGET", 1000)
    blocks = [block for block, _ in analytic.term_blocks(
        model, js, [8.0, 22.0, np.linspace(-80.0, 80.0, 1001)])]
    assert 1 < len(blocks) and all(b.stop - b.start < CHUNK for b in blocks)
    assert_blocked_matches_reference(model, js, [8.0, 22.0, 3.0], 1, 1001)
    assert_blocked_matches_reference(model, js, [8.0, 22.0, 3.0], 2, 1001)


def test_blocked_evaluation_memory_is_bounded():
    """Traced peak allocation over 10^6 samples of a 179-term 4-delay model.

    The per-term loop held several sweep-length temporaries at once:
    38 MiB for evaluate and 69 MiB for envelopes_analytic here.  Blocks
    hold one block's argument rows, so the peak is the outputs (the grid
    and one or two result arrays, 7.6 MiB each) plus about 15 MiB.
    """
    model = expand(compose(CascadeConfig.from_labels([0, 1, 2, 3], 4)),
                   ExchangeSymmetry.SYMMETRIC)
    js = make_spectrum(1.0, 0.1)
    spec = SweepSpec(fixed={1: 12.0, 2: 19.0, 3: 26.0}, swept=0,
                     start=-80.0, stop=80.0, samples=10**6)
    taus = spec.delay_vectors(4)
    mib = 2**20
    for call, args, outputs in ((evaluate, (model, js, taus), 1),
                                (envelopes_analytic, (model, js, spec), 3)):
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs * 8 * 10**6 + 20 * mib, (call.__name__, peak / mib)
