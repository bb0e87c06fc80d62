"""Closed-form expansion against hand-transcribed term-list fixtures.

Every fixture below was written out by hand from the beam-splitter
algebra: each term is (coefficient, sum-frequency argument combo,
difference-frequency argument combo), with both argument combos in
canonical sign (first nonzero delay coefficient positive).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton_cascade.analytic import (
    CosTerm,
    ZeroBaselineError,
    antisymmetric_equivalence_check,
    asymptotic_prune,
    evaluate,
    expand,
    render_latex,
    render_text,
    swap_rule,
)
from biphoton_cascade.cascade import CascadeConfig, compose
from biphoton_cascade.interferogram import (
    AnalyticBackend,
    SweepSpec,
    envelopes_analytic,
    sweep,
)
from biphoton_cascade.presets import CLASS_SIGMAS, make_spectrum, preset_cascade
from biphoton_cascade.spectra import ExchangeSymmetry

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


def test_prune_is_sound_numerically():
    js = make_spectrum(1.0, 1.0)
    model = model_for("three_param_11")
    threshold = 1e-6
    pruned = asymptotic_prune(model, {0: 8.0, 1: 22.0}, swept=2, js=js,
                              threshold=threshold)
    taus3 = np.linspace(-40.0, 40.0, 2001)
    full = evaluate(model, js, [8.0, 22.0, taus3])
    approx = evaluate(pruned, js, [8.0, 22.0, taus3])
    dropped = len(model.terms) - len(pruned.terms)
    assert np.abs(full - approx).max() <= dropped * threshold


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
