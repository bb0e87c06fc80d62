"""Acceptance gate: the nine headline guarantees, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Each criterion states its own tolerance; nothing here is tuned to the
implementation — expected values come from hand-transcribed term lists and
closed-form limits.
"""

import sys
import time

import numpy as np
import pytest
from scipy.optimize import curve_fit

from biphoton_cascade.analytic import (
    antisymmetric_equivalence_check,
    asymptotic_prune,
    evaluate,
    expand,
    swap_rule,
)
from biphoton_cascade.cascade import compose
from biphoton_cascade.interferogram import (
    AnalyticBackend,
    SweepSpec,
    detect_structures,
    envelopes_analytic,
    envelopes_numeric,
    fit_gaussian_sigma,
    reconstruct_spectra,
    sweep,
)
from biphoton_cascade.presets import (
    CLASS_SIGMAS,
    PRESETS,
    make_spectrum,
    preset_cascade,
    single_delay_chain,
    three_delay_chain,
    two_delay_chain,
)
from biphoton_cascade.quadrature import integrate_R, suggested_grid
from biphoton_cascade.spectra import ExchangeSymmetry

from test_analytic import (
    HOMI_FIXTURE,
    NOON_FIXTURE,
    THREE_PARAM_11_FIXTURE,
    THREE_PARAM_PRUNED_FIXTURE,
    TWO_PARAM_11_FIXTURE,
    TWO_PARAM_2002_FIXTURE,
)


def report(number, text):
    sys.stdout.write(f"\n[criterion {number}] PASS - {text}\n")


def model_for(preset, symmetry=ExchangeSymmetry.SYMMETRIC):
    return expand(compose(preset_cascade(preset)), symmetry)


def test_criterion_1_formula_regression():
    start = time.perf_counter()
    assert frozenset(model_for("homi").terms) == frozenset(HOMI_FIXTURE)
    assert frozenset(model_for("noon").terms) == frozenset(NOON_FIXTURE)
    assert frozenset(model_for("two_param_11").terms) == frozenset(TWO_PARAM_11_FIXTURE)
    assert frozenset(model_for("two_param_2002").terms) == \
        frozenset(TWO_PARAM_2002_FIXTURE)

    three = model_for("three_param_11")
    assert len(three.terms) == 28
    assert frozenset(three.terms) == frozenset(THREE_PARAM_11_FIXTURE)

    js = make_spectrum(1.0, 1.0)
    pruned = asymptotic_prune(three, {0: 8.0, 1: 22.0}, swept=2, js=js,
                              threshold=1e-2)
    assert frozenset(pruned.terms) == frozenset(THREE_PARAM_PRUNED_FIXTURE)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"five formula fixtures + 28-term count, exact rational "
              f"match in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for preset in PRESETS:
        tm = compose(preset_cascade(preset))
        for symmetry in ExchangeSymmetry:
            model = expand(tm, symmetry)
            for sigma_plus, sigma_minus in CLASS_SIGMAS.values():
                js = make_spectrum(sigma_plus, sigma_minus, symmetry)
                taus_batch = rng.uniform(-8.0, 8.0, (100, tm.n_delays))
                for taus in taus_batch:
                    closed = float(evaluate(model, js, taus))
                    numeric = integrate_R(tm, js, taus,
                                          suggested_grid(tm, js, taus))
                    worst = max(worst, abs(closed - numeric))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 120.0
    report(2, f"3600 random delay vectors across 6 presets x 2 symmetries "
              f"x 3 classes, max |diff| {worst:.2e} in {elapsed:.1f}s")


def _dip_sigma(sigma_plus, sigma_minus):
    js = make_spectrum(sigma_plus, sigma_minus)
    model = model_for("homi")
    taus = np.linspace(-8.0 / sigma_minus, 8.0 / sigma_minus, 4001)
    depth = 1.0 - evaluate(model, js, [taus])

    def gauss(t, amp, sig):
        return amp * np.exp(-(t**2) / (2.0 * sig**2))

    popt, _ = curve_fit(gauss, taus, depth, p0=[1.0, 1.0 / sigma_minus])
    return abs(popt[1])


def test_criterion_3_coincidence_dip():
    js = make_spectrum(1.0, 1.0)
    model = model_for("homi")
    assert abs(evaluate(model, js, [0.0])) <= 1e-9
    assert evaluate(model, js, [50.0]) == pytest.approx(1.0, abs=1e-9)

    # dip width scales inversely with the difference-frequency linewidth:
    # the width ratio between the sigma+/sigma- = 10 and = 1 classes must
    # equal the sigma- ratio
    width_ratio = _dip_sigma(1.0, 0.1) / _dip_sigma(1.0, 1.0)
    sigma_ratio = 1.0 / 0.1
    assert width_ratio == pytest.approx(sigma_ratio, rel=0.01)

    anti = make_spectrum(1.0, 1.0, ExchangeSymmetry.ANTISYMMETRIC)
    peak = evaluate(model_for("homi", ExchangeSymmetry.ANTISYMMETRIC),
                    anti, [0.0])
    assert peak == pytest.approx(2.0, abs=1e-9)
    report(3, f"dip floor <= 1e-9, baseline 1 +- 1e-9, width ratio "
              f"{width_ratio:.4f} vs {sigma_ratio} (+-1%), "
              f"antisymmetric peak {peak:.12f}")


def test_criterion_4_fringe_oscillation():
    js = make_spectrum(1.0, 1.0)
    model = model_for("noon")
    spec = SweepSpec(fixed={}, swept=0, start=-2.0, stop=2.0, samples=40001)
    trace = sweep(AnalyticBackend(model, js), spec)

    # zero crossings of the oscillating part, by linear interpolation
    osc = trace.values - 1.0
    idx = np.nonzero(np.sign(osc[:-1]) * np.sign(osc[1:]) < 0)[0]
    crossings = trace.taus[idx] - osc[idx] * (
        (trace.taus[idx + 1] - trace.taus[idx]) / (osc[idx + 1] - osc[idx])
    )
    spacing = np.diff(crossings)
    expected = np.pi / js.pump_frequency
    assert np.all(np.abs(spacing - expected) <= 0.005 * expected)

    wide = SweepSpec(fixed={}, swept=0, start=-30.0, stop=30.0, samples=4096)
    env = envelopes_analytic(model, js, wide)
    gauss = np.exp(-env.upper.taus**2 / 2.0)
    assert np.abs(env.upper.values - (1.0 + gauss)).max() <= 1e-9
    assert np.abs(env.lower.values - (1.0 - gauss)).max() <= 1e-9

    numeric = envelopes_numeric(sweep(AnalyticBackend(model, js), wide),
                                js.pump_frequency)
    rms = np.sqrt(np.mean((numeric.upper.values - env.upper.values) ** 2))
    assert rms <= 0.02
    report(4, f"{len(spacing)} fringe spacings at pi/omega_p +- 0.5%, "
              f"analytic envelopes <= 1e-9, numeric RMS {rms:.4f} <= 2%")


def test_criterion_5_parity_laws():
    sym = ExchangeSymmetry.SYMMETRIC
    homi, noon = model_for("homi"), model_for("noon")
    for n in range(1, 7):
        model = expand(compose(single_delay_chain(n)), sym)
        assert model.terms == (homi if n % 2 == 1 else noon).terms

    two_a, two_b = model_for("two_param_11"), model_for("two_param_2002")
    for n in range(2, 6):
        model = expand(compose(two_delay_chain(n)), sym)
        assert model.terms == (two_a if n % 2 == 0 else two_b).terms

    three_a, three_b = model_for("three_param_11"), model_for("three_param_2002")
    for n in range(3, 7):
        model = expand(compose(three_delay_chain(n)), sym)
        assert model.terms == (three_a if n % 2 == 1 else three_b).terms
    report(5, "single-delay n=1..6, two-delay n=2..5, three-delay n=3..6 "
              "all alternate between the two model families exactly")


def test_criterion_6_swap_rule_and_fermionic_identity():
    pairs = [("homi", "noon"), ("two_param_11", "two_param_2002"),
             ("three_param_11", "three_param_2002")]
    for first, second in pairs:
        assert swap_rule(model_for(first)).terms == model_for(second).terms
        tm_a, tm_b = compose(preset_cascade(first)), compose(preset_cascade(second))
        assert antisymmetric_equivalence_check(tm_a, tm_b)
    report(6, "swap rule maps all three |1,1> models to their |2002> "
              "counterparts; antisymmetric expansions pairwise identical")


def test_criterion_7_three_delay_structures():
    js = make_spectrum(1.0, 1.0)
    # expected centers: the fixed delays 8 and 22, their sum 30, and
    # their difference 14 (= 22 - 8, from the three-delay argument combos)
    expected = {
        8.0: 0.25, 22.0: 0.125, 30.0: 0.0625, 14.0: 0.0625,
        -8.0: 0.25, -22.0: 0.125, -30.0: 0.0625, -14.0: 0.0625,
    }
    for preset in ("three_param_11", "three_param_2002"):
        model = model_for(preset)
        spec = SweepSpec(fixed={0: 8.0, 1: 22.0}, swept=2,
                         start=-80.0, stop=80.0, samples=6401)
        trace = sweep(AnalyticBackend(model, js), spec)
        found = detect_structures(trace, baseline=1.0,
                                  carrier_freq=js.pump_frequency)
        assert len(found) == 8
        for structure in found:
            matches = [c for c in expected if abs(structure.center - c) <= 0.05]
            assert len(matches) == 1, structure
            assert structure.visibility == pytest.approx(
                expected[matches[0]], rel=0.10
            )
    report(7, "both three-delay sweeps show structures at +-8, +-22, +-30, "
              "+-14 (+-0.05) with visibilities 1/4, 1/8, 1/16, 1/16 (+-10%)")


def test_criterion_8_reconstruction_round_trip():
    start = time.perf_counter()
    for sigma_plus, sigma_minus in CLASS_SIGMAS.values():
        js = make_spectrum(sigma_plus, sigma_minus, pump_frequency=12.0)
        model = model_for("two_param_2002")
        tau1 = 5.0 / sigma_plus
        spec = SweepSpec(fixed={0: tau1}, swept=1,
                         start=-260.0, stop=260.0, samples=4096)
        trace = sweep(AnalyticBackend(model, js), spec)
        env = envelopes_numeric(trace, js.pump_frequency)
        (w_m, i_m), (w_p, i_p) = reconstruct_spectra(env, satellite_delay=tau1)
        assert fit_gaussian_sigma(w_m, i_m) == pytest.approx(sigma_minus,
                                                             rel=0.02)
        assert fit_gaussian_sigma(w_p, i_p) == pytest.approx(sigma_plus,
                                                             rel=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, f"both linewidths recovered within 2% for all three "
              f"correlation classes from 4096-sample sweeps in {elapsed:.2f}s")


def test_criterion_9_envelope_sum_difference_identities():
    js = make_spectrum(1.0, 1.0)
    tau1 = 5.0  # satisfies the sigma+ tau1 >= 5 pruning precondition
    model = model_for("two_param_2002")
    pruned = asymptotic_prune(model, {0: tau1}, swept=1, js=js,
                              threshold=1e-5)
    spec = SweepSpec(fixed={0: tau1}, swept=1, start=-15.0, stop=15.0,
                     samples=3001)
    env = envelopes_analytic(pruned, js, spec)
    tau2 = env.upper.taus

    total = env.upper.values + env.lower.values
    difference = env.upper.values - env.lower.values
    corr = lambda t: np.exp(-(t**2) / 2.0)
    expected_sum = 2.0 - corr(tau2)
    expected_diff = corr(tau2) + 0.5 * (corr(tau1 + tau2) + corr(tau1 - tau2))
    assert np.abs(total - expected_sum).max() <= 1e-9
    assert np.abs(difference - expected_diff).max() <= 1e-9
    report(9, "envelope sum/difference match closed forms to <= 1e-9 over "
              "the full sweep grid (pruned at sigma+ tau1 = 5)")
