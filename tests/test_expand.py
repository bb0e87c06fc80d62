"""``expand`` on the integer lattice against a pairwise ``Fraction`` reference.

The reference below is the plain pairwise expansion: every two product
terms, their half-sum and half-difference arguments in exact rationals,
and a dict merge.  It is quadratic in Python objects and only fit for
small cascades, which is what the property tests draw.  Larger cascades
are checked against frozen fixtures made by pairwise engines.
"""

import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cascade import analytic
from biphoton_cascade.analytic import (
    AnalyticModel,
    CosTerm,
    ExpansionTooLargeError,
    ZeroBaselineError,
    _Lattice,
    _sum_by_key,
    asymptotic_prune,
    evaluate,
    expand,
    render_text,
)
from biphoton_cascade.cascade import (
    CascadeConfig,
    ExpSum,
    TransferMatrix,
    combo_dot,
    compose,
)
from biphoton_cascade.presets import make_spectrum, preset_cascade, single_delay_chain
from biphoton_cascade.spectra import ExchangeSymmetry

F = Fraction


def canonical(combo):
    sign = next((1 if c > 0 else -1 for c in combo if c), 1)
    return tuple(sign * c for c in combo)


def reference_expand(tm, symmetry):
    """Pairwise Fraction expansion; None for a zero large-delay baseline."""
    prod = {}
    for sign, first, second in ((1, tm.A, tm.D), (int(symmetry), tm.B, tm.C)):
        for a_amp, a in first.terms:
            for b_amp, b in second.terms:
                prod[a, b] = prod.get((a, b), 0) + sign * a_amp * b_amp
    entries = [(c, a, b) for (a, b), c in prod.items() if c]
    constant = sum(c * c for c, _, _ in entries)
    if constant == 0:
        return None
    merged = {}
    for k, (ck, ak, bk) in enumerate(entries):
        for cl, al, bl in entries[k + 1:]:
            u = [x - y for x, y in zip(ak, al)]
            v = [x - y for x, y in zip(bk, bl)]
            key = (canonical([(x + y) / 2 for x, y in zip(u, v)]),
                   canonical([(x - y) / 2 for x, y in zip(u, v)]))
            merged[key] = merged.get(key, 0) + 2 * ck * cl / constant
    zero = (F(0),) * tm.n_delays
    terms = [CosTerm(F(1), zero, zero)] + [
        CosTerm(c, p, m) for (p, m), c in sorted(merged.items()) if c]
    return AnalyticModel.from_terms(terms, tm.n_delays, symmetry,
                                    constant / F(4) ** tm.stage_count)


def assert_matches_reference(tm, symmetry):
    expected = reference_expand(tm, symmetry)
    if expected is None:
        with pytest.raises(ZeroBaselineError):
            expand(tm, symmetry)
    else:
        assert expand(tm, symmetry) == expected


@st.composite
def cascades(draw):
    """1-4 delays over up to 7 splitters, at most 4 of them delayed.

    More delayed splitters make the reference too slow to run often.
    """
    n_delays = draw(st.integers(1, 4))
    delayed = draw(st.lists(st.integers(0, n_delays - 1), max_size=4))
    labels = list(delayed)
    for _ in range(draw(st.integers(0 if delayed else 1, 7 - len(delayed)))):
        labels.insert(draw(st.integers(0, len(labels))), None)
    input_delay = draw(st.none() | st.integers(0, n_delays - 1))
    return CascadeConfig.from_labels(labels, n_delays, input_delay)


@given(cascade=cascades(), symmetry=st.sampled_from(ExchangeSymmetry))
@settings(max_examples=60, deadline=None)
def test_expand_matches_pairwise_reference(cascade, symmetry):
    assert_matches_reference(compose(cascade), symmetry)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def rational_matrices(draw):
    """Hand-built matrices whose amplitudes and delay combinations are rational."""
    n_delays = draw(st.integers(1, 3))
    combo = st.tuples(*[rationals] * n_delays)

    def entry():
        return ExpSum.from_terms(
            draw(st.lists(st.tuples(rationals, combo), max_size=4)), n_delays)

    return TransferMatrix(entry(), entry(), entry(), entry(),
                          stage_count=draw(st.integers(0, 4)), n_delays=n_delays)


@given(tm=rational_matrices(), symmetry=st.sampled_from(ExchangeSymmetry))
@settings(max_examples=60, deadline=None)
def test_expand_matches_reference_on_rational_matrices(tm, symmetry):
    assert_matches_reference(tm, symmetry)


def test_expand_hand_built_rational_matrix():
    one_third = (F(1, 3), F(0))
    tm = TransferMatrix(
        A=ExpSum.from_terms([(F(1, 2), (F(0), F(0))), (F(-3, 4), one_third)], 2),
        B=ExpSum.from_terms([(F(2, 3), (F(0), F(1, 2)))], 2),
        C=ExpSum.from_terms([(F(5, 7), (F(1, 5), F(-1, 2)))], 2),
        D=ExpSum.from_terms([(F(1), (F(0), F(0))), (F(-1, 6), (F(2, 3), F(1)))], 2),
        stage_count=3, n_delays=2,
    )
    for symmetry in ExchangeSymmetry:
        model = expand(tm, symmetry)
        assert model == reference_expand(tm, symmetry)
        assert any(c.denominator > 2 for t in model.terms for c in t.plus_arg)


def test_expand_wide_lattice_spans_several_int64_words():
    # Delay coefficients near 2^40 give pair digits near 2^43 per column:
    # the four columns' lattice is far past int64, so keys are Python ints.
    wide = F(2) ** 40 + F(1, 3)
    tm = TransferMatrix(
        A=ExpSum.from_terms([(F(1), (F(0), F(0))), (F(2), (wide, F(-1)))], 2),
        B=ExpSum.from_terms([(F(1), (F(1), wide)), (F(-1), (-wide, F(0)))], 2),
        C=ExpSum.from_terms([(F(3), (F(0), -wide)), (F(1), (F(1, 2), F(0)))], 2),
        D=ExpSum.from_terms([(F(-1), (wide, wide)), (F(1), (F(0), F(1)))], 2),
        stage_count=2, n_delays=2,
    )
    for symmetry in ExchangeSymmetry:
        assert expand(tm, symmetry) == reference_expand(tm, symmetry)


@pytest.mark.parametrize("n_stages,preset", [(40, "noon"), (41, "homi")])
def test_long_delay_free_runs_match_their_short_form(n_stages, preset):
    # Every two delay-free splitters double the amplitudes, here to 2^20,
    # and the normalisation 2^-n_stages cancels them.
    long_chain = expand(compose(single_delay_chain(n_stages)),
                        ExchangeSymmetry.SYMMETRIC)
    assert long_chain == expand(compose(preset_cascade(preset)),
                                ExchangeSymmetry.SYMMETRIC)


# expand keeps int64 sums while 16 max(|A|^2, |B|^2) max(|C|^2, |D|^2) fits,
# here 16 (b^2 + 9)^2 for the amplitude b below: INT64_EDGE is the largest b.
INT64_EDGE = math.isqrt(math.isqrt(((1 << 63) - 1) // 16) - 9)


@pytest.mark.parametrize("amp", [
    pytest.param(F(2) ** 30, id="30"),  # products fit int64, sums do not
    pytest.param(F(2) ** 40, id="40"),  # products do not fit either
    pytest.param(F(INT64_EDGE), id="int64-edge"),
    pytest.param(F(INT64_EDGE + 1), id="past-int64-edge"),
])
def test_expand_exact_beyond_int64(amp):
    big = ExpSum.from_terms([(amp, (F(0),)), (F(3), (F(1),))], 1)
    neg_big = ExpSum.from_terms([(-amp, (F(0),)), (F(-3), (F(1),))], 1)
    small = ExpSum.from_terms([(F(1), (F(0),)), (F(-5), (F(2),))], 1)
    tm = TransferMatrix(big, small, big, neg_big, stage_count=1, n_delays=1)
    delays = np.linspace(-6.0, 6.0, 41)
    for symmetry in ExchangeSymmetry:
        model = expand(tm, symmetry)
        assert model == reference_expand(tm, symmetry)
        # Pruned, the coefficients pass through from_rows and the float view
        # again; every value keeps the bits of a loop over the rational terms.
        js = make_spectrum(1.0, 0.3, symmetry)
        for m in (model, *(asymptotic_prune(model, {}, 0, js, threshold)
                           for threshold in (1e-12, 1e-6))):
            for taus in ([0.7], [delays]):
                assert evaluate(m, js, taus).tobytes() == \
                    term_by_term(m, js, taus).tobytes()


def term_by_term(model, js, taus):
    total = np.zeros(np.shape(taus[0]))
    for t in model.terms:
        value = float(t.coeff)
        if any(t.plus_arg):
            arg = combo_dot(t.plus_arg, taus)
            value = value * np.cos(js.pump_frequency * arg) * js.plus.corr(arg)
        if any(t.minus_arg):
            value = value * js.minus.corr(combo_dot(t.minus_arg, taus))
        total = total + value
    return total


def test_expand_refuses_delay_combinations_beyond_int64():
    huge = ExpSum.from_terms([(F(1), (F(2) ** 62,))], 1)
    tm = TransferMatrix(huge, huge, huge, huge, stage_count=1, n_delays=1)
    with pytest.raises(OverflowError):
        expand(tm, ExchangeSymmetry.SYMMETRIC)


# ---------------------------------------------------------------------------
# The packing itself: one key per row, sorting in the rows' lexicographic order


def assert_lattice_packs(lo, hi, rows, dtype):
    lattice = _Lattice(lo, hi)
    keys = lattice.pack(rows)
    assert keys.shape == (len(rows),) and keys.dtype == dtype
    unpacked = lattice.unpack(keys)
    assert unpacked.dtype == np.int64
    np.testing.assert_array_equal(unpacked, rows)
    np.testing.assert_array_equal(np.argsort(keys, kind="stable"),
                                  np.lexsort(rows.T[::-1]))
    unique, counts = _sum_by_key(keys, np.ones(len(rows), dtype=np.int64))
    expected = {}
    for row in map(tuple, rows.tolist()):
        expected[row] = expected.get(row, 0) + 1
    assert [tuple(row) for row in lattice.unpack(unique).tolist()] == sorted(expected)
    assert counts.tolist() == [expected[row] for row in sorted(expected)]


@pytest.mark.parametrize("radix,dtype", [
    pytest.param((5, 3, 7), np.int64, id="small"),
    # Sizes 2^63, whose largest key is int64 max, and 2^63 + 1 (its factors).
    pytest.param((1 << 31, 1 << 32), np.int64, id="size-2^63"),
    pytest.param((119537721, 77158673929), object, id="size-2^63+1"),
])
def test_lattice_round_trip_and_row_order(radix, dtype):
    rng = np.random.default_rng(7)
    lo = -np.array(radix, dtype=np.int64) // 3
    hi = lo + np.array(radix, dtype=np.int64) - 1
    rows = rng.integers(lo, hi, size=(300, len(radix)), endpoint=True)
    # The corners, and repeated rows for the sums.
    rows = np.concatenate([rows, [lo, hi], rows[:40]])
    assert_lattice_packs(lo, hi, rows, dtype)
    assert (math.prod(radix) - 1 <= np.iinfo(np.int64).max) == (dtype is np.int64)


@st.composite
def lattices(draw):
    """Column bounds up to 2^41 wide (some lattices pass int64) and rows in them."""
    lo = draw(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=4))
    hi = [low + draw(st.integers(0, 1 << 41)) for low in lo]
    row = st.tuples(*(st.integers(low, high) for low, high in zip(lo, hi)))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    return lo, hi, np.array(rows, dtype=np.int64).reshape(len(rows), len(lo))


@given(lattice=lattices())
@settings(max_examples=100, deadline=None)
def test_lattice_round_trip_and_row_order_on_random_rows(lattice):
    lo, hi, rows = lattice
    size = math.prod(high - low + 1 for low, high in zip(lo, hi))
    dtype = np.int64 if size - 1 <= np.iinfo(np.int64).max else object
    assert_lattice_packs(lo, hi, rows, dtype)


def test_zero_baseline_has_its_own_error():
    tm = compose(CascadeConfig.from_labels([None], 0))
    with pytest.raises(ZeroBaselineError,
                       match="zero asymptotic coincidence baseline"):
        expand(tm, ExchangeSymmetry.SYMMETRIC)
    assert render_text(expand(tm, ExchangeSymmetry.ANTISYMMETRIC)) == "1"


# ---------------------------------------------------------------------------
# Frozen four- to seven-delay models, one delay per splitter, made by
# pairwise engines (the Fraction reference up to five delays, an integer
# pairing of every two product terms for six and seven): (term count,
# SHA-256 of render_text).

FROZEN = {
    (4, ExchangeSymmetry.SYMMETRIC):
        (179, "6a3937301863502adf6001017d5bf8ebb19778b8d4ccc95137936ec326a2d04d"),
    (4, ExchangeSymmetry.ANTISYMMETRIC):
        (179, "abbe4ed6e35a4354d0118a06f1615a72fc2f5d3d1c013912ebafe668de73ea3e"),
    (5, ExchangeSymmetry.SYMMETRIC):
        (1263, "7186d9871036140b89548d5079d8f0a98aa4b3c543c4fa30579cf59ea6150d40"),
    (5, ExchangeSymmetry.ANTISYMMETRIC):
        (1263, "22341fb64c1d7381f39eac2de4398bc03520b842809b4adb3fd3f2c800eeb429"),
    (6, ExchangeSymmetry.SYMMETRIC):
        (9241, "5ea6baf575ad94bc9661e337215e3decb8165abc3f0a691e436ae0ae07f09649"),
    (6, ExchangeSymmetry.ANTISYMMETRIC):
        (9241, "3c5aa71edf6ce20f6446aa61a7503683ae676f1434d7fcdb544d785199fba738"),
    (7, ExchangeSymmetry.SYMMETRIC):
        (68477, "1b199aea7c593622b9cf889f9b50328db12159b1118d6e4dc1692cded4d1056a"),
    (7, ExchangeSymmetry.ANTISYMMETRIC):
        (68477, "802ae3567d2300a58f7f59222d09decf536d8ee75027c5ca0b2b8a6e35ca69e9"),
}


@pytest.mark.parametrize("n_delays,symmetry", sorted(FROZEN))
def test_frozen_many_delay_models(n_delays, symmetry):
    model = expand(compose(CascadeConfig.from_labels(range(n_delays), n_delays)),
                   symmetry)
    text = render_text(model)
    assert (len(model.terms), hashlib.sha256(text.encode()).hexdigest()) == \
        FROZEN[n_delays, symmetry]
    assert model.raw_baseline == F(1, 2)


def test_five_delay_expand_time():
    tm = compose(CascadeConfig.from_labels(range(5), 5))
    start = time.perf_counter()
    model = expand(tm, ExchangeSymmetry.SYMMETRIC)
    elapsed = time.perf_counter() - start
    assert len(model.terms) == 1263
    assert elapsed < 5.0


def test_six_delay_2002_chain_finishes():
    tm = compose(CascadeConfig.from_labels([None, *range(6)], 6))
    start = time.perf_counter()
    model = expand(tm, ExchangeSymmetry.SYMMETRIC)
    elapsed = time.perf_counter() - start
    assert len(model.terms) == 9241
    assert elapsed < 30.0


def test_many_delay_lattice_is_built_in_linear_time():
    # one splitter among 20 000 delays: the pair lattice has 40 000
    # columns, whose place values must not cost a product per column
    tm = compose(CascadeConfig.from_labels([0], 20_000))
    start = time.perf_counter()
    model = expand(tm, ExchangeSymmetry.SYMMETRIC)
    elapsed = time.perf_counter() - start
    assert len(model.coeffs) == 2
    assert elapsed < 2.0


def test_expansion_past_the_budget_is_refused_before_its_cells(monkeypatch):
    # a 7-delay chain's correlations hold 16 384 pairs (about 4 MiB charged),
    # its cells 331 330 rows of 14 columns (0.138 GiB); each int64 cell
    # array alone would take 37 MB
    tm = compose(CascadeConfig.from_labels(range(7), 7))
    monkeypatch.setattr(analytic, "EXPAND_MEMORY_BUDGET", 16 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionTooLargeError,
                           match=r"^expanding 7 delays would need 0\.138 GiB"):
            expand(tm, ExchangeSymmetry.SYMMETRIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
