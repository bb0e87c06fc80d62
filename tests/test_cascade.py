"""Symbolic transfer matrices: structure, unitarity, coincidence density."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cascade import cascade as cascade_module
from biphoton_cascade.cascade import (
    CascadeConfig,
    ExpSum,
    combo_dot,
    compose,
    swept_dot,
    swept_fold,
)
from biphoton_cascade.presets import (
    PRESETS,
    make_spectrum,
    preset_cascade,
    single_delay_chain,
)
from biphoton_cascade.spectra import ExchangeSymmetry
from test_expand import cascades, integer_matrices

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
        assert reference_density(shifted, js, ws, wi, [tau]) == pytest.approx(
            reference_density(plain, js, ws, wi, [2.0 * tau]), abs=1e-12
        )


def test_homi_density_vanishes_on_diagonal():
    # Indistinguishable frequencies interfere destructively at any delay.
    js = make_spectrum(1.0, 1.0)
    tm = compose(preset_cascade("homi"))
    for omega in (9.0, 10.0, 11.5):
        for tau in (-2.0, 0.0, 0.4):
            assert reference_density(tm, js, omega, omega, [tau]) == \
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
    assert reference_density(tm, js, ws, wi, [tau]) == pytest.approx(
        4.0 * f**2, abs=1e-15
    )


def test_evaluate_rejects_wrong_delay_count():
    tm = compose(preset_cascade("two_param_11"))
    with pytest.raises(ValueError, match="^expected 2 delays, got 1$"):
        tm.evaluate(10.0, [0.5])


def test_delay_label_out_of_range():
    with pytest.raises(ValueError):
        CascadeConfig.from_labels([0, 2], 2)
    with pytest.raises(ValueError):
        CascadeConfig.from_labels([0], 1, input_delay=1)


def test_expsum_merges_amplitudes_exactly():
    # Equal rows merge in compose's shift-and-add, and amplitudes that
    # cancel drop there; from_rows drops zeros and sorts the rows, so equal
    # sums are equal ExpSums.
    one = {(1,): 1}
    assert ExpSum.from_rows(cascade_module._combine(one, one, 1), 1) == \
        ExpSum((2,), ((1,),), 1)
    assert ExpSum.from_rows(cascade_module._combine(one, one, -1), 1) == \
        ExpSum((), (), 1)


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


@given(tm=integer_matrices())
@settings(max_examples=60, deadline=None)
def test_large_delay_constant_on_rational_matrices(tm):
    assert_constants_match(tm)


# ---------------------------------------------------------------------------
# Numeric entries from the compiled arrays against a walk over the terms


def reference_entry(entry, omega, taus):
    """An entry's value as a walk over its integer terms, and the sum of
    its terms' magnitudes, the scale of rounding in either."""
    total = 0j
    for amp, combo in entry.terms:
        total += float(amp) * np.exp(-1j * omega * combo_dot(combo, taus))
    return total, sum(abs(float(amp)) for amp, _ in entry.terms)


def reference_density(tm, js, ws, wi, taus):
    """Coincidence probability density |f A(ws) D(wi) + s f B(ws) C(wi)|^2,
    each entry from ``reference_entry``, with f the joint amplitude at
    (ws, wi) and s the exchange symmetry; the 1/2^(2n) prefactor left out."""
    a, b, c, d = (reference_entry(entry, w, taus)[0]
                  for entry, w in ((tm.A, ws), (tm.B, ws), (tm.C, wi), (tm.D, wi)))
    f = js.plus.amplitude(ws + wi - js.pump_frequency) * js.minus.amplitude(ws - wi)
    return abs(f * a * d + int(js.symmetry) * f * b * c) ** 2


def assert_numeric_entries_match_reference(tm, data):
    omega = data.draw(st.floats(-40.0, 40.0))
    taus = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=tm.n_delays,
                              max_size=tm.n_delays))
    norm = 2.0 ** (-tm.stage_count / 2.0)
    matrix = numeric_matrix(tm, omega, taus)
    for value, entry in zip(matrix.ravel(), (tm.A, tm.B, tm.C, tm.D)):
        expected, scale = reference_entry(entry, omega, taus)
        assert abs(value - norm * expected) <= 1e-12 * max(1.0, norm * scale)


@given(config=cascades(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_numeric_entries_match_fraction_walk_on_cascades(config, data):
    assert_numeric_entries_match_reference(compose(config), data)


@given(tm=integer_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_numeric_entries_match_fraction_walk_on_rational_matrices(tm, data):
    assert_numeric_entries_match_reference(tm, data)


def test_expsum_scales_are_in_lowest_terms():
    # Unit delays and the splitters' 1 and -1 leave one scale, 1, for every
    # entry: amplitudes and rows are plain integers, and from_rows is the
    # canonical form, so an entry rebuilt from its own terms is itself.
    entry = ExpSum.from_rows({(3, 2): 4, (0, 0): 0, (1, 0): 2}, 2)
    assert (entry.amps, entry.rows) == ((2, 4), ((1, 0), (3, 2)))
    assert entry.terms == ((2, (1, 0)), (4, (3, 2)))
    assert entry == ExpSum.from_rows({(1, 0): 2, (3, 2): 4}, 2)
    for name in PRESETS:
        tm = compose(preset_cascade(name))
        for e in (tm.A, tm.B, tm.C, tm.D):
            assert all(type(amp) is int and amp for amp in e.amps)
            assert all(type(c) is int for row in e.rows for c in row)
            assert ExpSum.from_rows({row: amp for amp, row in e.terms},
                                    e.n_delays) == e


# ---------------------------------------------------------------------------
# The folds that turn a combination into numbers

#: Coefficients of a model's argument rows are halves; 3 and 0.1 are not.
COEFFICIENTS = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, 3.0, 0.1])
#: Delays that make exact zeros of either sign and exact cancellations.
DELAYS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -5.0]) | st.floats(-1e3, 1e3)


@given(row=st.lists(COEFFICIENTS, min_size=1, max_size=6), data=st.data())
@settings(max_examples=200, deadline=None)
def test_swept_fold_is_the_sequence_fold(row, data):
    """A row split at its one array delay, and rebuilt from a shared slope
    product, has the bits of combo_dot's sequence fold: zero coefficients,
    every swept position, +-0 lanes and a 2-D grid included."""
    column = data.draw(st.integers(0, len(row) - 1))
    row[column] = data.draw(COEFFICIENTS.filter(bool))
    taus = [np.asarray(data.draw(DELAYS)) for _ in row]
    lanes = data.draw(st.lists(DELAYS, min_size=1, max_size=12))
    lanes += [0.0, -0.0, -sum(c * float(t) for c, t in zip(row, taus)) / row[column]]
    grid = np.array(lanes)
    if data.draw(st.booleans()):
        grid = np.concatenate([grid, grid[:len(grid) % 2]]).reshape(2, -1)
    taus[column] = grid
    expected = combo_dot(row, taus)
    slopes = {row[column]: row[column] * grid}  # as another row of that slope left it
    for shared in ({}, slopes):
        got = swept_dot(swept_fold(row, taus, column), grid, shared)
        assert got.shape == grid.shape
        assert got.tobytes() == expected.tobytes()
    assert len(slopes) == 1


def test_stacked_fold_skips_zero_coefficients_at_non_finite_delays():
    """0 * inf and 0 * NaN are NaN: at such delays the stacked fold skips a
    zero coefficient, as each row's own fold does, and warns of nothing a
    row's fold does not."""
    tm = compose(CascadeConfig.from_labels([None, 0, 1, 2, 1], 3))
    _, rows, _ = tm.phase_plan
    assert (rows == 0).any()
    for bad in (np.inf, -np.inf, np.nan):
        for taus in ([bad, 1.5, -2.0], [0.5, -3.0, bad], [bad, -bad, 4.0],
                     [np.asarray(bad), 2.0, np.array([[1.0], [bad]])]):
            ends = np.shape(taus[2])[:1]  # (), or (2,) for the (2, 1) delay
            with np.errstate(invalid="ignore"):  # inf - inf, in both folds
                per_row = [np.broadcast_to(combo_dot(row, taus), ends + (1,))
                           for row in rows.tolist()]
                stacked = combo_dot(np.broadcast_to(rows, ends + rows.shape), taus)
            assert stacked.tobytes() == np.concatenate(per_row, axis=-1).reshape(
                stacked.shape).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = combo_dot(rows, [np.inf, 1.0, 2.0])
    assert not np.isnan(values).any()
