"""Symbolic transfer matrices: structure, unitarity, coincidence density."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cascade import cascade as cascade_module
from biphoton_cascade.cascade import (
    CascadeConfig,
    ExpSum,
    coincidence_density,
    combo_dot,
    compose,
)
from biphoton_cascade.presets import (
    CLASS_SIGMAS,
    make_spectrum,
    preset_cascade,
    single_delay_chain,
)
from biphoton_cascade.spectra import ExchangeSymmetry
from test_expand import cascades, rational_matrices

F = Fraction


def numeric_matrix(tm, omega, taus):
    return np.asarray(tm.evaluate(omega, taus), dtype=complex).reshape(2, 2)


def test_bs_matrix_numeric_form():
    tm = compose(CascadeConfig.from_labels([0], 1))
    omega, tau = 3.7, 1.3
    expected = np.array(
        [[1.0, np.exp(-1j * omega * tau)], [1.0, -np.exp(-1j * omega * tau)]]
    ) / np.sqrt(2.0)
    np.testing.assert_allclose(numeric_matrix(tm, omega, [tau]), expected,
                               atol=1e-15)


def test_delay_free_stage_is_hadamard():
    tm = compose(CascadeConfig.from_labels([None], 1))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(numeric_matrix(tm, 5.0, [2.0]), h, atol=1e-15)


def test_two_delay_free_stages_compose_to_identity():
    # A 50:50 splitter is an involution: two delay-free stages cancel.
    config = CascadeConfig.from_labels([None, None], 1)
    tm = compose(config)
    np.testing.assert_allclose(
        numeric_matrix(tm, 4.2, [0.7]), np.eye(2), atol=1e-15
    )


@pytest.mark.parametrize(
    "name",
    ["homi", "noon", "two_param_11", "two_param_2002",
     "three_param_11", "three_param_2002"],
)
def test_unitarity_at_random_points(name):
    tm = compose(preset_cascade(name))
    rng = np.random.default_rng(11)
    for _ in range(20):
        omega = rng.uniform(2.0, 40.0)
        taus = rng.uniform(-5.0, 5.0, tm.n_delays)
        m = numeric_matrix(tm, omega, taus)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_entry_term_count_bounded(n):
    tm = compose(single_delay_chain(n))
    bound = 2 ** max(n - 1, 0)
    for entry in (tm.A, tm.B, tm.C, tm.D):
        assert 1 <= len(entry.terms) <= bound


def test_compose_counts_stages_not_input_delay():
    with_input = compose(CascadeConfig.from_labels([None, 0], 1, input_delay=0))
    assert with_input.stage_count == 2


def test_input_delay_shifts_the_stage_delay():
    # A delay on the idler input before a delay-carrying splitter is the
    # same physical path imbalance applied twice: the density matches the
    # plain cascade evaluated at the doubled delay.
    js = make_spectrum(1.0, 1.0)
    plain = compose(CascadeConfig.from_labels([0], 1))
    shifted = compose(CascadeConfig.from_labels([0], 1, input_delay=0))
    rng = np.random.default_rng(3)
    for _ in range(10):
        ws, wi = rng.uniform(8.0, 12.0, 2)
        tau = rng.uniform(-3.0, 3.0)
        assert coincidence_density(shifted, js, ws, wi, [tau]) == pytest.approx(
            coincidence_density(plain, js, ws, wi, [2.0 * tau]), abs=1e-12
        )


def test_homi_density_vanishes_on_diagonal():
    # Indistinguishable frequencies interfere destructively at any delay.
    js = make_spectrum(1.0, 1.0)
    tm = compose(preset_cascade("homi"))
    for omega in (9.0, 10.0, 11.5):
        for tau in (-2.0, 0.0, 0.4):
            assert coincidence_density(tm, js, omega, omega, [tau]) == \
                pytest.approx(0.0, abs=1e-15)


def test_antisymmetric_homi_density_doubles_on_diagonal():
    js = make_spectrum(1.0, 1.0, ExchangeSymmetry.ANTISYMMETRIC)
    tm = compose(preset_cascade("homi"))
    ws, wi, tau = 10.4, 10.4, 0.9
    f = abs(
        js.plus.amplitude(ws + wi - js.pump_frequency)
        * js.minus.amplitude(ws - wi)
    )
    # perfect constructive interference: |2 f|^2
    assert coincidence_density(tm, js, ws, wi, [tau]) == pytest.approx(
        4.0 * f**2, abs=1e-15
    )


def test_density_rejects_wrong_delay_count():
    js = make_spectrum(1.0, 1.0)
    tm = compose(preset_cascade("two_param_11"))
    with pytest.raises(ValueError):
        coincidence_density(tm, js, 10.0, 10.0, [0.5])


def test_delay_label_out_of_range():
    with pytest.raises(ValueError):
        CascadeConfig.from_labels([0, 2], 2)
    with pytest.raises(ValueError):
        CascadeConfig.from_labels([0], 1, input_delay=1)


def test_expsum_merges_amplitudes_exactly():
    half = (Fraction(1, 2), (1,))
    merged = ExpSum.from_terms([half, half], 1)
    assert merged.terms == ExpSum.from_terms([(1, (1,))], 1).terms


@given(
    omega=st.floats(1.0, 50.0),
    tau=st.floats(-10.0, 10.0),
    n=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_single_delay_chain_stays_unitary(omega, tau, n):
    tm = compose(single_delay_chain(n))
    m = numeric_matrix(tm, omega, [tau])
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12


# ---------------------------------------------------------------------------
# compose against the general 2x2 product it replaced


def reference_compose(config):
    """Entries as ``{combo: amp}`` Fraction dicts, each splitter a full product.

    Every stage is the matrix [[1, phi], [1, -phi]], left-multiplying the
    accumulated one entry by entry: the algebra ``compose`` shortcuts.
    """
    n = config.n_delays
    origin = (F(0),) * n

    def unit(label):
        return tuple(F(int(i == label)) for i in range(n))

    def add(*entries):
        out = {}
        for entry in entries:
            for combo, amp in entry.items():
                out[combo] = out.get(combo, 0) + amp
        return {combo: amp for combo, amp in out.items() if amp}

    def mul(x, y):
        return add(*({tuple(p + q for p, q in zip(cx, cy)): ax * ay}
                     for cx, ax in x.items() for cy, ay in y.items()))

    def matmul(left, right):
        (a, b, c, d), (e, f, g, h) = left, right
        return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    acc = None
    if config.input_delay is not None:
        acc = ({origin: F(1)}, {}, {}, {unit(config.input_delay): F(1)})
    for stage in config.stages:
        label = stage.delay_label
        phase = {origin if label is None else unit(label): F(1)}
        splitter = ({origin: F(1)}, phase, {origin: F(1)},
                    {combo: -amp for combo, amp in phase.items()})
        acc = splitter if acc is None else matmul(splitter, acc)
    return tuple(tuple(sorted(((amp, combo) for combo, amp in entry.items()),
                              key=lambda term: term[1]))
                 for entry in acc)


def reference_constant(tm, symmetry):
    """The large-delay constant as the pairwise merge of the two product routes."""
    prod = {}
    for sign, first, second in ((1, tm.A, tm.D), (symmetry, tm.B, tm.C)):
        for a_amp, a in first.terms:
            for b_amp, b in second.terms:
                prod[a, b] = prod.get((a, b), 0) + sign * a_amp * b_amp
    return sum(c * c for c in prod.values())


def assert_constants_match(tm):
    even, cross = cascade_module._large_delay_moments(tm)
    for symmetry in ExchangeSymmetry:
        expected = reference_constant(tm, int(symmetry))
        assert even + int(symmetry) * cross == expected
        assert tm.large_delay_constant(int(symmetry)) == float(expected)


@given(config=cascades())
@settings(max_examples=80, deadline=None)
def test_compose_matches_general_product(config):
    tm = compose(config)
    assert tuple(e.terms for e in (tm.A, tm.B, tm.C, tm.D)) == \
        reference_compose(config)
    assert tm.stage_count == len(config.stages)
    assert_constants_match(tm)


@given(tm=rational_matrices())
@settings(max_examples=60, deadline=None)
def test_large_delay_constant_on_rational_matrices(tm):
    assert_constants_match(tm)


# ---------------------------------------------------------------------------
# Numeric entries from the compiled arrays against the rational-term walk


def reference_entry(entry, omega, taus):
    """An entry's value as a walk over its ``Fraction`` terms, and the sum
    of its terms' magnitudes, the scale of rounding in either."""
    total = 0j
    for amp, combo in entry.terms:
        total += float(amp) * np.exp(-1j * omega * combo_dot(combo, taus))
    return total, sum(abs(float(amp)) for amp, _ in entry.terms)


def assert_numeric_entries_match_reference(tm, data):
    omega = data.draw(st.floats(-40.0, 40.0))
    taus = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=tm.n_delays,
                              max_size=tm.n_delays))
    norm = 2.0 ** (-tm.stage_count / 2.0)
    matrix = numeric_matrix(tm, omega, taus)
    for value, entry in zip(matrix.ravel(), (tm.A, tm.B, tm.C, tm.D)):
        expected, scale = reference_entry(entry, omega, taus)
        assert abs(value - norm * expected) <= 1e-12 * max(1.0, norm * scale)

    symmetry = data.draw(st.sampled_from(ExchangeSymmetry))
    js = make_spectrum(*CLASS_SIGMAS[data.draw(st.sampled_from(sorted(CLASS_SIGMAS)))],
                       symmetry)
    ws, wi = (js.pump_frequency / 2.0 + data.draw(st.floats(-4.0, 4.0))
              for _ in range(2))
    (a, a_scale), (b, b_scale), (c, c_scale), (d, d_scale) = (
        reference_entry(entry, w, taus)
        for entry, w in ((tm.A, ws), (tm.B, ws), (tm.C, wi), (tm.D, wi)))
    f = js.plus.amplitude(ws + wi - js.pump_frequency) * js.minus.amplitude(ws - wi)
    expected = abs(f * a * d + int(symmetry) * f * b * c) ** 2
    scale = (abs(f) * (a_scale * d_scale + b_scale * c_scale)) ** 2
    assert abs(coincidence_density(tm, js, ws, wi, taus) - expected) <= \
        1e-12 * max(1.0, scale)


@given(config=cascades(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_numeric_entries_match_fraction_walk_on_cascades(config, data):
    assert_numeric_entries_match_reference(compose(config), data)


@given(tm=rational_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_numeric_entries_match_fraction_walk_on_rational_matrices(tm, data):
    assert_numeric_entries_match_reference(tm, data)


def test_expsum_scales_are_in_lowest_terms():
    entry = ExpSum.from_terms(
        [(F(2, 3), (F(1, 2), F(0))), (F(4, 3), (F(3, 2), F(1)))], 2)
    assert (entry.amps, entry.rows) == ((2, 4), ((1, 0), (3, 2)))
    assert (entry.amp_scale, entry.combo_scale) == (3, 2)
    halves = ExpSum.from_terms([(F(1, 2), (F(1, 2),)), (F(3, 2), (F(1),))], 1)
    assert (halves.amps, halves.rows, halves.amp_scale, halves.combo_scale) == \
        ((1, 3), ((1,), (2,)), 2, 2)
    whole = ExpSum.from_terms(
        halves.terms + ((F(-1, 2), (F(1, 2),)), (F(1, 2), (1,))), 1)
    assert (whole.amps, whole.rows, whole.amp_scale, whole.combo_scale) == \
        ((2,), ((1,),), 1, 1)
    assert ExpSum.from_terms(entry.terms, 2) == entry
    cancelled = ExpSum.from_terms([(1, (F(2, 4),)), (F(-1), (F(1, 2),))], 1)
    assert cancelled == ExpSum((), (), 1)
