"""Brute-force quadrature backend against closed-form reference values."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from biphoton_cascade import cascade, quadrature
from biphoton_cascade.cascade import (
    CascadeConfig,
    ExpSum,
    TransferMatrix,
    ZeroBaselineError,
    combo_dot,
    compose,
)
from biphoton_cascade.presets import CLASS_SIGMAS, PRESETS, make_spectrum, preset_cascade
from biphoton_cascade.quadrature import (
    MAX_NODES_PER_AXIS,
    GridSpec,
    GridTooLargeError,
    NonFiniteDensityError,
    _axis,
    integrate_R,
    integrate_R_with_error,
    suggested_grid,
)
from biphoton_cascade.analytic import evaluate, expand
from biphoton_cascade.spectra import ExchangeSymmetry, ProfileKind, SpectralProfile

from test_expand import cascades

JS = make_spectrum(1.0, 1.0)
HOMI = compose(preset_cascade("homi"))
NOON = compose(preset_cascade("noon"))
GRID = GridSpec(256)


def test_single_dip_value_against_closed_form():
    # coincidence dip: 1 - exp(-sigma_minus^2 tau^2 / 2) at tau = 1
    assert integrate_R(HOMI, JS, [1.0], GRID) == pytest.approx(
        1.0 - np.exp(-0.5), abs=1e-9
    )


def test_dip_bottom_is_zero():
    assert integrate_R(HOMI, JS, [0.0], GRID) == pytest.approx(0.0, abs=1e-10)


def test_fringe_value_against_closed_form():
    # 1 + cos(pump tau) exp(-sigma_plus^2 tau^2 / 2)
    tau = 0.37
    expected = 1.0 + np.cos(20.0 * tau) * np.exp(-(tau**2) / 2.0)
    assert integrate_R(NOON, JS, [tau], suggested_grid(NOON, JS, [tau])) == \
        pytest.approx(expected, abs=1e-9)


def test_trapezoid_handles_odd_profiles():
    # the first Hermite-Gaussian intensity, a polynomial times a Gaussian
    js = make_spectrum(1.0, 1.0, ExchangeSymmetry.ANTISYMMETRIC)
    expected = 1.0 + (1.0 - 0.81) * np.exp(-0.81 / 2.0)  # 1 + g-(0.9), odd kind
    for grid in (GRID, suggested_grid(HOMI, js, [0.9])):
        assert integrate_R(HOMI, js, [0.9], grid) == pytest.approx(expected, abs=1e-9)


def test_half_grid_estimate_tracks_second_order_convergence():
    # At 5.5 linewidths the density's slope at the window's ends is not
    # negligible, so the trapezoid rule converges at second order (the
    # estimates fall about 4x per halved step, from ~1e-8) instead of
    # reaching rounding noise by 65 nodes, as it does at 8 linewidths.
    estimates = []
    for nodes in (65, 129, 257):
        value, estimate = integrate_R_with_error(HOMI, JS, [0.8],
                                                 GridSpec(nodes, 5.5))
        half = integrate_R(HOMI, JS, [0.8], GridSpec((nodes + 1) // 2, 5.5))
        assert estimate == pytest.approx(abs(value - half), abs=1e-15)
        estimates.append(estimate)
    assert estimates[-1] >= 1e-12  # refinement, not rounding
    assert estimates[2] <= estimates[1] <= estimates[0]
    assert estimates[-1] < 1e-9
    assert 3.0 <= estimates[1] / estimates[2] <= 5.0


def test_estimate_is_none_off_nested_grids():
    # Even grids hold no half grid.
    value, estimate = integrate_R_with_error(HOMI, JS, [0.8], GRID)
    assert estimate is None
    assert value == integrate_R(HOMI, JS, [0.8], GRID)
    value, estimate = integrate_R_with_error(HOMI, JS, [0.8], GridSpec(257))
    assert 0.0 <= estimate < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(16)
    with pytest.raises(ValueError):
        GridSpec(64, extent_sigmas=2.0)
    for nodes in ((16, 65), (65, 16), (65,), (65, 65, 65)):
        with pytest.raises(ValueError):
            GridSpec(nodes)
    with pytest.raises(GridTooLargeError):
        GridSpec((65, MAX_NODES_PER_AXIS + 1))


def test_one_count_sets_both_axes():
    assert GridSpec(65).nodes == (65, 65) and GridSpec(65, 6.0).nodes == (65, 65)
    assert GridSpec(65) == GridSpec((65, 65)) == GridSpec([65, 65])
    grid = GridSpec((603, 99))
    assert grid.nodes == (603, 99) and grid.nodes_per_axis == 603
    assert GridSpec((99, 603)).nodes_per_axis == 603


@pytest.mark.parametrize("nodes", [32, 33, 256, 257])
def test_trapezoid_steps_past_the_underflow_bound_are_refused(nodes):
    widest = quadrature._MAX_STEP_SIGMAS * (nodes - 1) / 2
    for symmetry in ExchangeSymmetry:
        js = make_spectrum(1.0, 1.0, symmetry)
        grid = GridSpec(nodes, widest * (1 - 1e-12))
        assert np.isfinite(integrate_R(HOMI, js, [0.5], grid))
    for extent in (widest * (1 + 1e-12), 1e5, 1e300):
        with pytest.raises(ValueError, match="linewidths apart"):
            GridSpec(nodes, extent)


def test_suggested_grid_scales_with_delay():
    small = suggested_grid(NOON, JS, [0.5])
    large = suggested_grid(NOON, JS, [40.0])
    assert large.nodes_per_axis > small.nodes_per_axis


def test_result_is_even_in_delay():
    for tau in (0.3, 1.1):
        grid = suggested_grid(HOMI, JS, [tau])
        assert integrate_R(HOMI, JS, [tau], grid) == pytest.approx(
            integrate_R(HOMI, JS, [-tau], grid), abs=1e-12
        )


@given(tau=st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_normalized_rate_within_physical_bounds(tau):
    value = integrate_R(NOON, JS, [tau], suggested_grid(NOON, JS, [tau]))
    assert -1e-9 <= value <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# The GEMM contraction against the per-term outer-product oracle it replaced


def reference_integrate_R(tm, js, taus, grid):
    """Entry fields summed one np.outer per term; baseline merged in integers."""
    wp, wp_weights = _axis(grid.nodes[0], grid.extent_sigmas * js.plus.sigma)
    wm, wm_weights = _axis(grid.nodes[1], grid.extent_sigmas * js.minus.sigma)

    def field(entry, minus_sign):
        out = np.zeros((wp.size, wm.size), dtype=complex)
        for amp, combo in entry.terms:
            u = combo_dot(combo, taus)
            out += (float(amp) * np.exp(-0.5j * js.pump_frequency * u)) * np.outer(
                np.exp(-0.5j * wp * u), np.exp(-0.5j * minus_sign * wm * u))
        return out

    sym = int(js.symmetry)
    density = np.abs(field(tm.A, 1) * field(tm.D, -1)
                     + sym * field(tm.B, 1) * field(tm.C, -1)) ** 2
    joint = np.outer(js.plus.intensity(wp) * wp_weights,
                     js.minus.intensity(wm) * wm_weights)
    prod = {}
    for sign, first, second in ((1, tm.A, tm.D), (sym, tm.B, tm.C)):
        for a_amp, a in first.terms:
            for b_amp, b in second.terms:
                prod[a, b] = prod.get((a, b), 0) + sign * a_amp * b_amp
    baseline = float(sum(c * c for c in prod.values()))
    return float(np.sum(joint * density)) / (baseline * float(np.sum(joint)))


#: Node counts that end on a short row block when the row-block order runs.
RAGGED_NODES = (33, 257, 269)

grids = st.one_of(
    st.none(),  # the suggested grid
    st.builds(GridSpec, st.integers(32, 256), st.floats(5.0, 10.0)),
    st.builds(GridSpec, st.sampled_from(RAGGED_NODES), st.floats(5.0, 10.0)),
)


@given(
    config=cascades(),
    symmetry=st.sampled_from(ExchangeSymmetry),
    class_name=st.sampled_from(sorted(CLASS_SIGMAS)),
    grid=grids,
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_contraction_matches_outer_product_reference(config, symmetry, class_name,
                                                     grid, data):
    tm = compose(config)
    assume(tm.large_delay_constant(int(symmetry)) != 0)
    js = make_spectrum(*CLASS_SIGMAS[class_name], symmetry)
    taus = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=tm.n_delays,
                              max_size=tm.n_delays))
    grid = grid or suggested_grid(tm, js, taus)
    assert abs(integrate_R(tm, js, taus, grid)
               - reference_integrate_R(tm, js, taus, grid)) <= 1e-12


def test_contraction_on_rational_hand_built_matrix():
    # Amplitudes and delay rows beyond a composed cascade's 1, -1 and units.
    tm = TransferMatrix(
        A=ExpSum.from_rows({(0, 0): 2, (1, 0): -3}, 2),
        B=ExpSum.from_rows({(0, 1): 2}, 2),
        C=ExpSum.from_rows({(1, -1): 5}, 2),
        D=ExpSum.from_rows({(0, 0): 6, (2, 1): -1}, 2),
        stage_count=3, n_delays=2,
    )
    # Its entries have 1 and 2 terms, which integrate_R zero-pads to K = 2,
    # so every grid here takes the Gram form; the row blocks on ragged
    # grids are checked with a wider matrix below.
    assert all(nodes % quadrature.ROW_BLOCK for nodes in RAGGED_NODES)
    ragged = [GridSpec(nodes) for nodes in RAGGED_NODES]
    for symmetry in ExchangeSymmetry:
        js = make_spectrum(1.0, 0.5, symmetry)
        for taus in ([0.0, 0.0], [1.7, -2.4], [-6.5, 3.1]):
            for grid in (suggested_grid(tm, js, taus), *ragged):
                assert abs(integrate_R(tm, js, taus, grid)
                           - reference_integrate_R(tm, js, taus, grid)) <= 1e-12


# Both contraction orders: integrate_R takes the Gram form when K^3 <= N.

CONTRACTIONS = {"gram": quadrature._gram_sum, "row blocks": quadrature._row_block_sum}


def _spy_orders(monkeypatch):
    """Record the contraction order of every integrate_R call."""
    used = []
    for order, contract in CONTRACTIONS.items():
        def spy(*args, order=order, contract=contract):
            used.append(order)
            return contract(*args)
        monkeypatch.setattr(quadrature, contract.__name__, spy)
    return used


def _force_order(monkeypatch, order):
    """Route integrate_R to one contraction order whatever K and N are."""
    for contract in CONTRACTIONS.values():
        monkeypatch.setattr(quadrature, contract.__name__, CONTRACTIONS[order])


@pytest.mark.parametrize(
    "preset, nodes, chosen",
    [
        ("two_param_2002", 32, "row blocks"),  # K = 4, K^3 = 64
        ("two_param_2002", 64, "gram"),
        ("two_param_2002", 128, "gram"),
        ("three_param_2002", 256, "row blocks"),  # K = 8, K^3 = 512
        ("three_param_2002", 512, "gram"),
        # unequal axes: the Gram form once K^3 (N+ + N-) <= 2 N+ N-
        ("two_param_2002", (33, 257), "row blocks"),  # 64 * 290 > 16962
        ("two_param_2002", (257, 65), "gram"),  # 64 * 322 <= 33410
        ("three_param_2002", (603, 99), "row blocks"),  # 512 * 702 > 119394
        ("three_param_2002", (451, 801), "gram"),  # 512 * 1252 <= 722502
    ],
)
def test_each_contraction_order_matches_the_reference(monkeypatch, preset, nodes,
                                                      chosen):
    tm = compose(preset_cascade(preset))
    grid = GridSpec(nodes)
    cases = [(make_spectrum(1.0, 0.5, symmetry), taus)
             for symmetry in ExchangeSymmetry
             for taus in ([0.0] * tm.n_delays, [1.7, -2.4, 0.6][:tm.n_delays])]
    references = [reference_integrate_R(tm, js, taus, grid) for js, taus in cases]
    used = _spy_orders(monkeypatch)
    for (js, taus), reference in zip(cases, references):
        assert abs(integrate_R(tm, js, taus, grid) - reference) <= 1e-12
    assert set(used) == {chosen}
    for order in CONTRACTIONS:
        _force_order(monkeypatch, order)
        for (js, taus), reference in zip(cases, references):
            assert abs(integrate_R(tm, js, taus, grid) - reference) <= 1e-12


def test_contraction_orders_on_zero_padded_entries_at_ragged_nodes(monkeypatch):
    tm = TransferMatrix(
        A=ExpSum.from_rows({(0, 0): 2, (1, 0): -3, (2, -1): 1, (0, 3): 2}, 2),
        B=ExpSum.from_rows({(0, 1): 2}, 2),
        C=ExpSum.from_rows({(1, -1): 5, (2, 0): -1}, 2),
        D=ExpSum.from_rows({(0, 0): 1}, 2),
        stage_count=3, n_delays=2,
    )
    # K = 4 after zero-padding B, C and D: 33 nodes take the row blocks
    # (ending on a one-row block), 65 the Gram form; both are ragged.
    assert [nodes % quadrature.ROW_BLOCK for nodes in (33, 65)] == [1, 1]
    for nodes, chosen in ((33, "row blocks"), (65, "gram")):
        grid = GridSpec(nodes)
        for symmetry in ExchangeSymmetry:
            js = make_spectrum(1.0, 0.5, symmetry)
            taus = [1.7, -2.4]
            reference = reference_integrate_R(tm, js, taus, grid)
            used = _spy_orders(monkeypatch)
            assert abs(integrate_R(tm, js, taus, grid) - reference) <= 1e-12
            assert used == [chosen]
            for order in CONTRACTIONS:
                _force_order(monkeypatch, order)
                assert abs(integrate_R(tm, js, taus, grid) - reference) <= 1e-12


@pytest.mark.parametrize(
    "preset, taus, chosen",
    [
        ("noon", [40.0], "gram"),  # K = 2
        ("noon", [-40.0], "gram"),
        ("three_param_2002", [40.0, 1.0, 2.0], "row blocks"),  # K = 8
    ],
)
def test_overflowing_carrier_is_refused_by_each_order(monkeypatch, preset, taus,
                                                      chosen):
    tm = compose(preset_cascade(preset))
    js = make_spectrum(1.0, 1.0, pump_frequency=1e308)
    used = _spy_orders(monkeypatch)
    with pytest.raises(NonFiniteDensityError,
                       match=r"non-finite coincidence density at pump frequency 1e\+308"):
        integrate_R(tm, js, taus, GRID)
    assert used == [chosen]


def test_wide_cascade_keeps_the_row_blocks_and_their_memory(monkeypatch):
    # Four delays give K = 16: at 2048 nodes the Gram form would hold U and
    # V of 2048 x 512 complex (16 MiB each) and two 4 MiB Grams; K^3 = 4096
    # keeps the row blocks.
    tm = compose(CascadeConfig.from_labels([None, 0, 1, 2, 3], 4))
    assert max(len(entry.amps) for entry in (tm.A, tm.B, tm.C, tm.D)) == 16
    used = _spy_orders(monkeypatch)
    tracemalloc.start()
    try:
        value = integrate_R(tm, make_spectrum(1.0, 0.1), [0.5, 1.0, -2.0, 3.0],
                            GridSpec(2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert used == ["row blocks"]
    assert peak < 32 * 2**20


def test_stacked_combo_dot_matches_each_term():
    tm = compose(preset_cascade("three_param_2002"))
    taus = [0.7, -2.5, 4.25]
    combos = np.array(tm.D.rows, dtype=float)
    assert combos.shape == (len(tm.D.terms), 3)
    for combo, u in zip(tm.D.rows, combo_dot(combos, taus)):
        assert u == combo_dot(combo, taus)
    # five delays: the model's argument rows, where a matrix product once
    # differed from the fold in the last bit, stacked flat and in pairs
    tm = compose(CascadeConfig.from_labels([None, 0, 1, 2, 3, 4], 5))
    _, plus, minus, _ = expand(tm, ExchangeSymmetry.SYMMETRIC).arrays
    rng = np.random.default_rng(5)
    for taus in rng.uniform(-80.0, 80.0, (3, 5)):
        for args in (plus, minus):
            stacked = combo_dot(args, taus)
            assert stacked.tolist() == [combo_dot(row, taus) for row in args.tolist()]
            pairs = combo_dot(args[:len(args) // 2 * 2].reshape(-1, 2, 5), taus)
            assert np.array_equal(pairs.ravel(), stacked[:pairs.size])
    with pytest.raises(ValueError, match="expected 5 delays"):
        combo_dot(plus, [1.0, 2.0])


# ---------------------------------------------------------------------------
# The phase plan against the per-slot factors it replaced


def reference_factors(tm, taus, pump, w_plus, w_minus):
    """The factor stacks with a cosine and a sine on every (entry, term) slot.

    The entries are zero-padded to the widest, K terms, and each of the
    4 K slots takes its own phases; C and D take W- with the opposite sign.
    """
    entries = (tm.A, tm.B, tm.C, tm.D)
    width = max(len(entry.amps) for entry in entries)
    amps = np.zeros((4, width))
    combos = np.zeros((4, width, tm.n_delays))
    for slot, entry in enumerate(entries):
        for term, (amp, combo) in enumerate(entry.terms):
            amps[slot, term] = amp
            combos[slot, term] = combo
    u = combo_dot(combos, taus)
    minus_sign = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        plus = quadrature._cis(u[:, None, :] * (-0.5 * w_plus)[:, None])
        plus *= (amps * quadrature._cis(-0.5 * pump * u))[:, None, :]
        minus = quadrature._cis((-0.5 * minus_sign) * u[:, :, None] * w_minus)
    return plus, minus


def assert_planned_factors_match(tm, js, taus, grid=None):
    grid = grid or suggested_grid(tm, js, taus)
    w_plus, w_minus = (_axis(nodes, grid.extent_sigmas * sigma)[0]
                       for nodes, sigma in zip(grid.nodes, (js.plus.sigma, js.minus.sigma)))
    planned = quadrature._factors(*quadrature._phases(tm, taus), js.pump_frequency,
                                  w_plus, w_minus)
    for stack, reference in zip(planned, reference_factors(
            tm, taus, js.pump_frequency, w_plus, w_minus)):
        assert stack.flags.c_contiguous and stack.shape == reference.shape
        assert np.array_equal(stack, reference)


def test_planned_factors_are_the_per_slot_factors_on_every_preset(models):
    rng = np.random.default_rng(20261019)
    for (preset, symmetry), (tm, _) in models.items():
        for sigmas in CLASS_SIGMAS.values():
            js = make_spectrum(*sigmas, symmetry)
            for taus in rng.uniform(-8.0, 8.0, (3, tm.n_delays)):
                assert_planned_factors_match(tm, js, taus)


@given(config=cascades(), class_name=st.sampled_from(sorted(CLASS_SIGMAS)),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_planned_factors_are_the_per_slot_factors_on_any_cascade(config, class_name,
                                                                 data):
    tm = compose(config)
    js = make_spectrum(*CLASS_SIGMAS[class_name])
    taus = data.draw(st.lists(st.floats(-80.0, 80.0), min_size=tm.n_delays,
                              max_size=tm.n_delays))
    assert_planned_factors_match(tm, js, taus, data.draw(st.sampled_from(
        (None, GridSpec(65), GridSpec((33, 257))))))


def test_conjugated_halves_hold_at_large_phases():
    # cis(x) = conj cis(-x) to the bit needs cos even and sin odd to the
    # bit: delays near 250 put the W- phases of C and D at up to +-1e3 rad
    tm = compose(preset_cascade("three_param_2002"))
    rng = np.random.default_rng(1000)
    grid, largest = GridSpec(257), 0.0
    for symmetry in ExchangeSymmetry:
        for sigmas in CLASS_SIGMAS.values():
            js = make_spectrum(*sigmas, symmetry)
            for taus in rng.uniform(-250.0, 250.0, (4, 3)):
                assert_planned_factors_match(tm, js, taus, grid)
                u_max = np.abs(quadrature._phases(tm, taus)[1]).max()
                largest = max(largest, 0.5 * u_max * grid.extent_sigmas * js.minus.sigma)
    assert largest >= 1e3


def test_axis_nodes_are_linspace_to_the_bit():
    # at 1e-322 over 4729 nodes the step underflows to 0, which linspace
    # treats apart
    for nodes in (32, 33, 65, 257, 603, 4729):
        for half_width in (8.0, 0.8, 8.0 * 0.37, 5.0 * 1e-3, 1e-320, 1e-322):
            points = _axis(nodes, half_width)[0]
            assert np.array_equal(points, np.linspace(-half_width, half_width, nodes))


# ---------------------------------------------------------------------------
# Compiled once per matrix, held by the matrix


def test_compiles_each_entry_and_baseline_once(monkeypatch):
    calls = {"baseline": 0, "plan": 0}
    moments = cascade._large_delay_moments
    phase_plan = cascade._compile_phase_plan

    def counting_moments(*args):
        calls["baseline"] += 1
        return moments(*args)

    def counting_plan(*args):
        calls["plan"] += 1
        return phase_plan(*args)

    monkeypatch.setattr(cascade, "_large_delay_moments", counting_moments)
    monkeypatch.setattr(cascade, "_compile_phase_plan", counting_plan)
    tm = compose(preset_cascade("three_param_2002"))
    for symmetry in ExchangeSymmetry:
        js = make_spectrum(1.0, 0.1, symmetry)
        for taus in ([0.5, 1.0, -2.0], [3.0, -1.0, 0.25], [-7.5, 6.0, 40.0]):
            integrate_R_with_error(tm, js, taus, suggested_grid(tm, js, taus))
    assert calls == {"baseline": 1, "plan": 1}
    amps, rows, index = tm.phase_plan
    assert not (amps.flags.writeable or rows.flags.writeable or index.flags.writeable)
    # three_param_2002's 32 slots hold 8 distinct delay rows
    assert amps.shape == index.shape == (4, 8) and rows.shape == (8, 3)


def test_zero_delay_matrix_keeps_its_value():
    # two delay-free splitters: every slot's row is the empty row
    tm = compose(CascadeConfig.from_labels([None, None], 0))
    _, rows, index = tm.phase_plan
    assert rows.shape == (1, 0) and not index.any()
    expected = {ExchangeSymmetry.SYMMETRIC: (1.0, 2.220446049250313e-16),
                ExchangeSymmetry.ANTISYMMETRIC: (0.9999999999999998, 2.220446049250313e-16)}
    for symmetry, value in expected.items():
        js = make_spectrum(1.0, 0.1, symmetry)
        assert integrate_R_with_error(tm, js, [], suggested_grid(tm, js, [])) == value


def test_calls_never_hash_a_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("hashed per call")

    tm = compose(preset_cascade("two_param_2002"))
    monkeypatch.setattr(TransferMatrix, "__hash__", refuse)
    monkeypatch.setattr(ExpSum, "__hash__", refuse)
    for _ in range(2):
        integrate_R(tm, JS, [1.0, 2.0], suggested_grid(tm, JS, [1.0, 2.0]))


def test_equal_distinct_matrices_give_identical_values():
    first = compose(preset_cascade("three_param_11"))
    second = compose(preset_cascade("three_param_11"))
    assert first == second and first is not second
    taus = [1.25, -0.5, 2.0]
    grid = suggested_grid(first, JS, taus)
    warm = integrate_R(first, JS, taus, grid)
    assert integrate_R(second, JS, taus, grid) == warm
    assert integrate_R(first, JS, taus, grid) == warm


def _module_containers():
    return {
        (module.__name__, name): len(value)
        for module in (cascade, quadrature)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def test_nothing_module_level_outlives_the_matrices():
    before = _module_containers()
    refs = []
    for preset in PRESETS:
        tm = compose(preset_cascade(preset))
        taus = [0.3] * tm.n_delays
        integrate_R(tm, JS, taus, suggested_grid(tm, JS, taus))
        refs.append(weakref.ref(tm))
    del tm
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert _module_containers() == before


def test_one_call_holds_row_blocks_not_fields():
    # An N x N complex field alone takes 64 MiB at 2048 nodes.
    tm = compose(preset_cascade("three_param_2002"))
    js = make_spectrum(1.0, 0.1)
    tracemalloc.start()
    try:
        value = integrate_R(tm, js, [0.5, 1.0, -2.0], GridSpec(2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Grids refused before anything is allocated


def test_grid_over_memory_budget_is_refused():
    assert MAX_NODES_PER_AXIS >= 2000  # far above the ~780 nodes of real sweeps
    GridSpec(MAX_NODES_PER_AXIS)
    for nodes in (MAX_NODES_PER_AXIS + 1, 100_000_000, 10**400):
        with pytest.raises(GridTooLargeError):
            GridSpec(nodes)


def test_suggested_grid_over_budget_is_refused():
    with pytest.raises(GridTooLargeError):
        suggested_grid(NOON, JS, [1e6])


# ---------------------------------------------------------------------------
# Odd nested grids and the half-grid error estimate


@pytest.fixture(scope="module")
def models():
    """Each preset's transfer matrix and closed-form model per symmetry."""
    table = {}
    for preset in PRESETS:
        tm = compose(preset_cascade(preset))
        for symmetry in ExchangeSymmetry:
            table[preset, symmetry] = tm, expand(tm, symmetry)
    return table


def _half_value(tm, js, taus, grid):
    """``integrate_R`` on the grid of ``grid``'s nodes of even index."""
    half = GridSpec(tuple((nodes + 1) // 2 for nodes in grid.nodes), grid.extent_sigmas)
    return integrate_R(tm, js, taus, half)


#: Delays in +-8, half of them drawn from the outer quarters, where the
#: fringes are fastest and grids of 65-97 nodes under-resolve them.
DELAYS = st.one_of(st.floats(-8.0, 8.0), st.floats(6.0, 8.0), st.floats(-8.0, -6.0))
#: Half-grid intervals of one axis, 65-97 nodes about half the time.
HALF_INTERVALS = st.one_of(st.integers(32, 48), st.integers(32, 160))


@given(preset=st.sampled_from(PRESETS), symmetry=st.sampled_from(ExchangeSymmetry),
       sigmas=st.one_of(st.sampled_from(sorted(CLASS_SIGMAS.values())),
                        st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0))),
       half_intervals=st.one_of(HALF_INTERVALS.map(lambda m: (m, m)),
                                st.tuples(HALF_INTERVALS, HALF_INTERVALS)),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_half_grid_estimate_bounds_the_true_error(models, preset, symmetry, sigmas,
                                                  half_intervals, data):
    # odd grids from 65 nodes up on each axis, square or not, the small
    # ones under-resolved at the larger delays; linewidths of the three
    # classes or any two in 0.1-1; the search is steered towards large
    # errors
    tm, model = models[preset, symmetry]
    js = make_spectrum(*sigmas, symmetry)
    taus = data.draw(st.lists(DELAYS, min_size=tm.n_delays, max_size=tm.n_delays))
    grid = GridSpec(tuple(2 * intervals + 1 for intervals in half_intervals))
    value, estimate = integrate_R_with_error(tm, js, taus, grid)
    error = abs(value - float(evaluate(model, js, taus)))
    target(math.log10(error + 1e-300))
    if error > 1e-12:
        assert estimate >= error


@pytest.mark.parametrize("order", ["gram", "row blocks"])
@pytest.mark.parametrize(
    "preset, nodes",
    [
        ("two_param_2002", 65),    # K = 4: the Gram form's one block of nodes
        ("two_param_2002", 257),   # two 128-node blocks and a one-node block
        ("three_param_2002", 65),  # K = 8: one ragged row block
        ("three_param_2002", 545),  # seventeen 32-node blocks and one node
        ("two_param_2002", (65, 257)),  # unequal axes, rows along W+
        ("three_param_2002", (545, 97)),  # unequal axes, rows along W-
    ],
)
def test_half_value_is_the_value_on_the_half_grid(monkeypatch, models, order,
                                                  preset, nodes):
    tm, _ = models[preset, ExchangeSymmetry.SYMMETRIC]
    grid = GridSpec(nodes)
    cases = [(make_spectrum(1.0, 0.5, symmetry), taus)
             for symmetry in ExchangeSymmetry
             for taus in ([0.0] * tm.n_delays, [1.7, -2.4, 6.6][:tm.n_delays])]
    _force_order(monkeypatch, order)
    for js, taus in cases:
        value, estimate = integrate_R_with_error(tm, js, taus, grid)
        assert value == integrate_R(tm, js, taus, grid) and math.isfinite(estimate)
        half = _half_value(tm, js, taus, grid)
        assert abs(abs(value - half) - estimate) <= 1e-12


def test_estimate_catches_under_resolved_grids(models):
    tm, model = models["three_param_2002", ExchangeSymmetry.ANTISYMMETRIC]
    # delays -8, 8 and 4.5 on 65 nodes: the grid samples the fastest fringe,
    # and the half grid's difference bounds an error of 2.8e-5
    js = make_spectrum(1.0, 1.0, ExchangeSymmetry.ANTISYMMETRIC)
    taus = [-8.0, 8.0, 4.5]
    value, estimate = integrate_R_with_error(tm, js, taus, GridSpec(65))
    error = abs(value - float(evaluate(model, js, taus)))
    assert error > 1e-5 and math.isfinite(estimate)
    assert abs(estimate - abs(value - _half_value(tm, js, taus, GridSpec(65)))) <= 1e-12
    assert estimate >= error
    # three_param_2002 at delays 8, 22 and 3 (sigma+ 1, sigma- 0.1): 65
    # nodes miss the closed form by 0.12 and cannot sample the fastest
    # fringe, so no half-grid difference certifies them
    tm, model = models["three_param_2002", ExchangeSymmetry.SYMMETRIC]
    js = make_spectrum(1.0, 0.1)
    taus = [8.0, 22.0, 3.0]
    value, estimate = integrate_R_with_error(tm, js, taus, GridSpec(65))
    error = abs(value - float(evaluate(model, js, taus)))
    assert error > 0.12
    assert estimate >= 0.12 and estimate >= error
    grid = suggested_grid(tm, js, taus)
    value, estimate = integrate_R_with_error(tm, js, taus, grid)
    assert abs(value - float(evaluate(model, js, taus))) <= estimate + 1e-12
    assert estimate <= 1e-9


def test_suggested_grids_certify_the_oracle_points(models):
    # the delay vectors of criterion 2 and validate: right-sized grids
    # (median under 128 nodes) whose every value carries an estimate
    rng = np.random.default_rng(20260826)
    nodes, worst = [], 0.0
    for (preset, symmetry), (tm, model) in models.items():
        for sigmas in CLASS_SIGMAS.values():
            js = make_spectrum(*sigmas, symmetry)
            for taus in rng.uniform(-8.0, 8.0, (4, tm.n_delays)):
                grid = suggested_grid(tm, js, taus)
                value, estimate = integrate_R_with_error(tm, js, taus, grid)
                nodes.append(grid.nodes_per_axis)
                worst = max(worst, estimate)
                assert abs(value - float(evaluate(model, js, taus))) <= 1e-12
    assert np.median(nodes) < 128
    assert worst <= 1e-9


@given(preset=st.sampled_from(PRESETS), class_name=st.sampled_from(sorted(CLASS_SIGMAS)),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_suggested_grids_are_odd_and_nested(models, preset, class_name, data):
    tm, _ = models[preset, ExchangeSymmetry.SYMMETRIC]
    js = make_spectrum(*CLASS_SIGMAS[class_name])
    taus = data.draw(st.lists(st.floats(-80.0, 80.0), min_size=tm.n_delays,
                              max_size=tm.n_delays))
    grid = suggested_grid(tm, js, taus)
    for nodes in grid.nodes:
        assert nodes % 2 == 1 and nodes >= 65
        full = _axis(nodes, grid.extent_sigmas)[0]
        half = _axis((nodes + 1) // 2, grid.extent_sigmas)[0]
        np.testing.assert_allclose(full[::2], half, rtol=0, atol=1e-12)


def test_each_suggested_axis_follows_its_own_linewidth(models):
    tm, model = models["three_param_2002", ExchangeSymmetry.SYMMETRIC]

    def count(sigma, u_max):
        # M - 1 = max(32, ceil((2 sigma u_max + 8) E / pi)), N = 2M - 1
        return 2 * max(32, math.ceil((2 * sigma * u_max + 8) * 8 / math.pi)) + 1

    for taus, u_max in (([8.0, 22.0, 3.0], 33.0), ([1.0, 2.0, 0.5], 3.5)):
        assert quadrature._fastest_delay(quadrature._phases(tm, taus)[1]) == u_max
        wide, narrow = count(1.0, u_max), count(0.1, u_max)
        for class_name, nodes in (("correlated", (wide, narrow)),
                                  ("anticorrelated", (narrow, wide)),
                                  ("uncorrelated", (wide, wide))):
            js = make_spectrum(*CLASS_SIGMAS[class_name])
            grid = suggested_grid(tm, js, taus)
            assert grid.nodes == nodes and grid.nodes_per_axis == wide
            value, estimate = integrate_R_with_error(tm, js, taus, grid)
            assert abs(value - float(evaluate(model, js, taus))) <= 1e-12
            assert estimate <= 1e-9
    # the wide axis keeps the square grid's count; the narrow one takes a
    # fifth of it at delays 8, 22 and 3, and the 65-node floor at 1, 2, 0.5
    assert (count(1.0, 33.0), count(0.1, 33.0)) == (379, 77)
    assert (count(1.0, 3.5), count(0.1, 3.5)) == (79, 65)


def test_suggested_grid_slope_and_floor():
    assert suggested_grid(HOMI, JS, [0.0]).nodes_per_axis == 65
    for tau in (40.0, 80.0):
        # noon's fastest combination is the delay itself; about 10.2
        # sigma u_max nodes, as four nodes per fringe cycle gave
        nodes = suggested_grid(NOON, JS, [tau]).nodes_per_axis
        assert 32 / math.pi * tau <= nodes <= 32 / math.pi * tau + 45


@pytest.mark.parametrize("sigma_plus, tau", [(1e300, 1.0), (1e300, 1e300), (1.0, 1e6)])
def test_huge_suggested_grids_are_refused_in_floats(sigma_plus, tau):
    # 1e302 nodes once overflowed the GiB message's int division, and an
    # infinite count the int conversion; both are refusals now
    with pytest.raises(GridTooLargeError, match="nodes per axis would need"):
        suggested_grid(HOMI, make_spectrum(sigma_plus, 1.0, pump_frequency=1e308),
                       [tau])


def test_underflowed_weights_are_refused():
    # the odd minus profile's intensity scales as (sigma- x)^2: at 1e-160
    # every minus weight underflows and nothing normalises the sum
    js = make_spectrum(1.0, 1e-160, ExchangeSymmetry.ANTISYMMETRIC)
    with pytest.raises(quadrature.UnderflowedWeightsError, match="underflows to 0"):
        integrate_R_with_error(HOMI, js, [0.5], suggested_grid(HOMI, js, [0.5]))


@pytest.mark.parametrize("labels, n_delays", [([None], 0), ([None, 0, None], 1)])
def test_zero_baseline_is_refused_as_in_the_closed_form(labels, n_delays):
    # the large-delay constant normalises the integral; the closed form
    # refuses these cascades with the same error
    tm = compose(CascadeConfig.from_labels(labels, n_delays))
    js = make_spectrum(1.0, 0.1)
    taus = [0.5] * n_delays
    with pytest.raises(ZeroBaselineError):
        expand(tm, ExchangeSymmetry.SYMMETRIC)
    for integrate in (integrate_R, integrate_R_with_error):
        with pytest.raises(ZeroBaselineError, match="zero asymptotic coincidence baseline"):
            integrate(tm, js, taus, suggested_grid(tm, js, taus))


@dataclass(frozen=True)
class OddNodesOnly:
    """A Gaussian minus profile whose intensity is 0 at every node of even
    index; hashable, as the oracle's axis cache keys its axes by profile."""

    sigma: float = 1.0

    def intensity(self, omega):
        out = np.exp(-omega**2 / 2.0)
        out[::2] = 0.0
        return out


def test_estimate_is_inf_when_only_the_half_grid_underflows():
    js = make_spectrum(1.0, 1.0)
    odd_only = SimpleNamespace(
        plus=js.plus, minus=OddNodesOnly(),
        pump_frequency=js.pump_frequency, symmetry=js.symmetry)
    value, estimate = integrate_R_with_error(HOMI, odd_only, [0.5], GridSpec(65))
    assert math.isfinite(value) and estimate == math.inf


# ---------------------------------------------------------------------------
# The axis cache: each grid axis built once, every call on it the same bits


def uncached_integrate_R_with_error(tm, js, taus, grid):
    """``integrate_R_with_error`` with both axes built afresh on each call.

    For odd grids whose half grid resolves the density, such as the
    suggested grids, and for even grids, whose estimate is None.
    """
    sym = int(js.symmetry)
    constant = tm.large_delay_constant(sym)
    (wp, wp_weights), (wm, wm_weights) = (
        _axis(nodes, grid.extent_sigmas * sigma)
        for nodes, sigma in zip(grid.nodes, (js.plus.sigma, js.minus.sigma)))
    j_plus = js.plus.intensity(wp) * wp_weights
    j_minus = js.minus.intensity(wm) * wm_weights
    weights = float(j_plus.sum() * j_minus.sum())
    plus, minus = quadrature._factors(*quadrature._phases(tm, taus), js.pump_frequency,
                                      wp, wm)
    root_plus = np.sqrt(j_plus)[:, None]
    plus[0] *= root_plus
    plus[1] *= sym * root_plus
    minus[:2] *= np.sqrt(j_minus)
    numerator, half = quadrature._contract(plus, minus)
    value = float(numerator) / (constant * weights)
    if any(nodes % 2 == 0 for nodes in grid.nodes):
        return value, None
    half_norm = constant * float(j_plus[::2].sum() * j_minus[::2].sum())
    return value, abs(value - float(half) / half_norm)


def bits(pair):
    return tuple(None if x is None else float(x).hex() for x in pair)


def test_cached_axes_give_the_uncached_bits_on_every_preset():
    # the symmetries alternate innermost, so Gaussian and Hermite-Gaussian
    # minus axes of one linewidth and node count take turns in the cache
    rng = np.random.default_rng(20261022)
    quadrature._axis_data.cache_clear()
    for preset in PRESETS:
        tm = compose(preset_cascade(preset))
        for sigmas in CLASS_SIGMAS.values():
            for taus in rng.uniform(-8.0, 8.0, (2, tm.n_delays)):
                for grid in (None, GridSpec(256)):
                    for symmetry in ExchangeSymmetry:
                        js = make_spectrum(*sigmas, symmetry)
                        spec = grid or suggested_grid(tm, js, taus)
                        expected = uncached_integrate_R_with_error(tm, js, taus, spec)
                        got = integrate_R_with_error(tm, js, taus, spec)
                        assert bits(got) == bits(expected)
                        assert (got[1] is None) == (grid is not None)
    assert quadrature._axis_data.cache_info().hits > 0


def test_a_grid_misses_once_then_hits():
    js, grid = make_spectrum(1.0, 0.1), GridSpec((129, 65))
    quadrature._axis_data.cache_clear()
    first = integrate_R_with_error(HOMI, js, [0.5], grid)
    info = quadrature._axis_data.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    second = integrate_R_with_error(HOMI, js, [0.5], grid)
    info = quadrature._axis_data.cache_info()
    assert (info.hits, info.misses) == (2, 2)
    assert bits(first) == bits(second) == bits(
        uncached_integrate_R_with_error(HOMI, js, [0.5], grid))


def test_profiles_of_one_linewidth_and_two_kinds_keep_their_own_axes():
    gauss = SpectralProfile(ProfileKind.GAUSSIAN, 1.0)
    odd = SpectralProfile(ProfileKind.HERMITE_GAUSSIAN1, 1.0)
    quadrature._axis_data.cache_clear()
    for _ in range(3):
        for profile in (gauss, odd):
            points, root, total, even = quadrature._axis_data(65, 8.0, profile)
            nodes, weights = _axis(65, 8.0)
            j = profile.intensity(nodes) * weights
            assert np.array_equal(points, nodes)
            assert np.array_equal(root, np.sqrt(j))
            assert total == j.sum() and even == j[::2].sum()
    assert quadrature._axis_data.cache_info().currsize == 2


def test_cached_axes_are_read_only():
    points, root, _, _ = quadrature._axis_data(65, 8.0, JS.plus)
    for array in (points, root):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_axis_cache_is_bounded():
    maxsize = quadrature._axis_data.cache_info().maxsize
    quadrature._axis_data.cache_clear()
    for nodes in range(33, 33 + maxsize + 16):
        quadrature._axis_data(nodes, 8.0, JS.plus)
    info = quadrature._axis_data.cache_info()
    assert maxsize is not None and info.currsize <= maxsize
    assert info.misses == maxsize + 16
