"""``expand`` on the integer lattice against a pairwise ``Fraction`` reference.

The reference below is the plain pairwise expansion: every two product
terms, their half-sum and half-difference arguments and their
coefficients in exact ``Fraction``s, and a dict merge.  It is quadratic in Python objects and only fit for
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
    ExpansionTooLargeError,
    ZeroBaselineError,
    _cells,
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
    """Pairwise Fraction expansion as the exact ``(coeff, plus, minus)``
    triples of ``AnalyticModel.terms``, in model order; None for a zero
    large-delay baseline."""
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
            key = (canonical([F(x + y, 2) for x, y in zip(u, v)]),
                   canonical([F(x - y, 2) for x, y in zip(u, v)]))
            merged[key] = merged.get(key, 0) + F(2 * ck * cl, constant)
    zero = (F(0),) * tm.n_delays
    return ((F(1), zero, zero),) + tuple(
        (c, p, m) for (p, m), c in sorted(merged.items()) if c)


def assert_matches_reference(tm, symmetry):
    expected = reference_expand(tm, symmetry)
    if expected is None:
        with pytest.raises(ZeroBaselineError):
            expand(tm, symmetry)
    else:
        assert expand(tm, symmetry).terms == expected


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


integers = st.integers(-18, 18)


@st.composite
def integer_matrices(draw):
    """Hand-built matrices of any integer amplitudes and delay rows, beyond
    the 1 and -1 and the unit delays of a composed cascade."""
    n_delays = draw(st.integers(1, 3))
    row = st.tuples(*[integers] * n_delays)

    def entry():
        return ExpSum.from_rows(draw(st.dictionaries(row, integers, max_size=4)),
                                n_delays)

    return TransferMatrix(entry(), entry(), entry(), entry(),
                          stage_count=draw(st.integers(0, 4)), n_delays=n_delays)


@given(tm=integer_matrices(), symmetry=st.sampled_from(ExchangeSymmetry))
@settings(max_examples=60, deadline=None)
def test_expand_matches_reference_on_rational_matrices(tm, symmetry):
    assert_matches_reference(tm, symmetry)


def test_expand_hand_built_rational_matrix():
    # Amplitudes and delay rows far from a composed cascade's 1, -1 and
    # unit steps, and arguments that halve to half-integers.
    tm = TransferMatrix(
        A=ExpSum.from_rows({(0, 0): 42, (10, 0): -63}, 2),
        B=ExpSum.from_rows({(0, 15): 56}, 2),
        C=ExpSum.from_rows({(6, -15): 60}, 2),
        D=ExpSum.from_rows({(0, 0): 84, (20, 31): -14}, 2),
        stage_count=3, n_delays=2,
    )
    for symmetry in ExchangeSymmetry:
        model = expand(tm, symmetry)
        assert model.terms == reference_expand(tm, symmetry)
        assert model.arg_scale == 2 and model.coeff_scale > 1


def test_expand_wide_lattice_spans_several_int64_words():
    # Delay coefficients near 2^41 give pair digits near 2^44 per column:
    # the four columns' lattice is far past int64, so keys are Python ints.
    wide = 3 * 2 ** 40 + 1
    tm = TransferMatrix(
        A=ExpSum.from_rows({(0, 0): 1, (wide, -3): 2}, 2),
        B=ExpSum.from_rows({(3, wide): 1, (-wide, 0): -1}, 2),
        C=ExpSum.from_rows({(0, -wide): 3, (1, 0): 1}, 2),
        D=ExpSum.from_rows({(wide, wide): -1, (0, 3): 1}, 2),
        stage_count=2, n_delays=2,
    )
    for symmetry in ExchangeSymmetry:
        assert expand(tm, symmetry).terms == reference_expand(tm, symmetry)


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
    pytest.param(2 ** 30, id="30"),  # products fit int64, sums do not
    pytest.param(2 ** 40, id="40"),  # products do not fit either
    pytest.param(INT64_EDGE, id="int64-edge"),
    pytest.param(INT64_EDGE + 1, id="past-int64-edge"),
])
def test_expand_exact_beyond_int64(amp):
    big = ExpSum.from_rows({(0,): amp, (1,): 3}, 1)
    neg_big = ExpSum.from_rows({(0,): -amp, (1,): -3}, 1)
    small = ExpSum.from_rows({(0,): 1, (2,): -5}, 1)
    tm = TransferMatrix(big, small, big, neg_big, stage_count=1, n_delays=1)
    delays = np.linspace(-6.0, 6.0, 41)
    for symmetry in ExchangeSymmetry:
        model = expand(tm, symmetry)
        assert model.terms == reference_expand(tm, symmetry)
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
    for coeff, plus_arg, minus_arg in model.terms:
        value = float(coeff)
        if any(plus_arg):
            arg = combo_dot(plus_arg, taus)
            value = value * np.cos(js.pump_frequency * arg) * js.plus.corr(arg)
        if any(minus_arg):
            value = value * js.minus.corr(combo_dot(minus_arg, taus))
        total = total + value
    return total


def test_expand_refuses_delay_combinations_beyond_int64():
    huge = ExpSum.from_rows({(2 ** 62,): 1}, 1)
    tm = TransferMatrix(huge, huge, huge, huge, stage_count=1, n_delays=1)
    with pytest.raises(OverflowError):
        expand(tm, ExchangeSymmetry.SYMMETRIC)


# ---------------------------------------------------------------------------
# The packing itself: one key per row, sorting in the rows' lexicographic order


def reference_keys(lo, hi, rows):
    """Each row's key as a Python integer, one row at a time: its digits
    x - lo in mixed radix hi - lo + 1, the first column most significant."""
    keys = []
    for row in rows:
        key = 0
        for x, low, high in zip(row, lo, hi):
            key = key * (high - low + 1) + (x - low)
        keys.append(key)
    return keys


def assert_lattice_packs(lo, hi, rows, dtype):
    if all(low <= 0 <= high for low, high in zip(lo, hi)):
        rows = np.concatenate([rows, np.zeros((1, len(lo)), dtype=np.int64)])  # the zero row
    lattice = _Lattice(lo, hi)
    keys = lattice.pack(rows)
    assert keys.shape == (len(rows),) and keys.dtype == dtype
    assert keys.tolist() == reference_keys(list(map(int, lo)), list(map(int, hi)), rows.tolist())
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


def test_lattice_of_no_columns_packs_zeros():
    # a cascade of no delays: every row is the empty row, whose key is 0
    lattice = _Lattice([], [])
    keys = lattice.pack(np.zeros((3, 0), dtype=np.int64))
    assert keys.dtype == np.int64 and keys.tolist() == [0, 0, 0]
    assert lattice.unpack(keys).shape == (3, 0)
    assert lattice.size == 1


@st.composite
def lag_groups(draw):
    """Two sides' four groups of lag rows and their sums, as ``_cells``
    reads them: each side's lags within its own span per column, zero rows
    among them.  Spans up to 2^34 put some pair lattices past int64, and
    sums up to 2^70 need Python integers."""
    n = draw(st.integers(0, 3))
    wide = draw(st.sampled_from([8, 1 << 34]))
    spans = [[draw(st.integers(0, wide)) for _ in range(n)] for _ in range(2)]
    exact = draw(st.sampled_from([np.int64, object]))
    bound = (1 << 31) if exact is np.int64 else (1 << 70)
    sides = []
    for span in spans:
        row = st.tuples(*(st.integers(-s, s) for s in span)).map(list)
        groups = []
        for _ in range(4):
            rows = draw(st.lists(row, max_size=4))
            if draw(st.booleans()):
                rows.append([0] * n)
            sums = [draw(st.integers(-bound, bound)) for _ in rows]
            groups.append((rows, sums))
        sides.append(groups)
    return [a + b for a, b in zip(*spans)], sides, exact


def signed_groups(groups, span, dtype, exact):
    """Each group's lag rows as their keys on the lattice of +-``span``,
    less the zero row's, computed one row at a time."""
    zero = reference_keys([-s for s in span], span, [[0] * len(span)])[0]
    return [(np.array([k - zero for k in reference_keys([-s for s in span], span, rows)],
                      dtype=dtype), np.array(sums, dtype=exact))
            for rows, sums in groups]


def check_cells(span, sides, exact):
    radix = math.prod(2 * s + 1 for s in span)
    dtype = np.int64 if radix * radix - 1 <= np.iinfo(np.int64).max else object
    left, right = (signed_groups(groups, span, dtype, exact) for groups in sides)
    keys, sums = _cells(left, right, _Lattice([-s for s in span], span), exact)
    assert keys.dtype == dtype and sums.dtype == exact
    # One cell per (left lag, right lag) of each group, in that order: its
    # canonical (x + y, x - y) rows' key on the pair lattice, less the zero
    # row's, and the product of the two sums.
    lo, hi = [-s for s in span] * 2, span * 2
    zero = reference_keys(lo, hi, [[0] * len(lo)])[0]
    expected_keys, expected_sums = [], []
    for (xs, ls), (ys, rs) in zip(*sides):
        for x, l in zip(xs, ls):
            for y, r in zip(ys, rs):
                row = canonical([a + b for a, b in zip(x, y)]) + \
                    canonical([a - b for a, b in zip(x, y)])
                expected_keys.append(reference_keys(lo, hi, [row])[0] - zero)
                expected_sums.append(l * r)
    assert keys.tolist() == expected_keys
    assert sums.tolist() == expected_sums


@given(lags=lag_groups())
@settings(max_examples=100, deadline=None)
def test_cells_key_each_canonical_pair_as_the_reference(lags):
    check_cells(*lags)


@pytest.mark.parametrize("span,dtype", [
    # One column: pair lattice sizes 3037000499^2 <= 2^63 and 3037000501^2 > 2^63.
    pytest.param(1518500249, np.int64, id="int64-edge"),
    pytest.param(1518500250, object, id="past-int64-edge"),
])
def test_cells_at_the_int64_edge_of_the_pair_lattice(span, dtype):
    a, b = span // 2, span - span // 2
    left = [([[-a], [a], [0], [1], [-1]], [1, -2, 3, 4, 5])] * 4
    right = [([[-b], [b], [0], [b - 1]], [1, 1, -1, 7])] * 4
    check_cells([span], [left, right], np.int64)
    radix = 2 * span + 1
    assert (radix * radix - 1 <= np.iinfo(np.int64).max) == (dtype is np.int64)


@st.composite
def correlation_sides(draw):
    """Two sides of two entries each, of 0-3 distinct rows and nonzero
    amplitudes, over 0-3 delays."""
    n = draw(st.integers(0, 3))
    row = st.tuples(*[st.integers(-6, 6)] * n)
    sides = []
    for _ in range(2):
        entries = []
        for _ in range(2):
            rows = draw(st.lists(row, max_size=3, unique=True))
            amps = [draw(st.integers(-5, 5).filter(bool)) for _ in rows]
            entries.append((amps, rows))
        sides.append(entries)
    return n, sides


@given(data=correlation_sides())
@settings(max_examples=100, deadline=None)
def test_merged_correlations_match_each_pair(data):
    n, sides = data
    arrays = [tuple(zip(*((np.array(a, dtype=np.int64),
                           np.array(r, dtype=np.int64).reshape(len(r), n))
                          for a, r in side))) for side in sides]
    # Each side's rows' span per column, taken with zero as expand takes it.
    span = [sum(max(column) - min(column) for column in
                ([0] + [row[c] for _, rows in side for row in rows] for side in sides))
            for c in range(n)]
    half = _Lattice([-s for s in span], span)
    groups = analytic._correlations(arrays, half, np.int64)
    for side, got in zip(sides, groups):
        for g, (keys, sums) in enumerate(got):
            (amps_u, rows_u), (amps_v, rows_v) = side[g // 2], side[g % 2]
            merged = {}
            for a, k in zip(amps_u, rows_u):
                for b, l in zip(amps_v, rows_v):
                    lag = tuple(y - x for x, y in zip(k, l))
                    merged[lag] = merged.get(lag, 0) + a * b
            lags = sorted(lag for lag, total in merged.items() if total)
            zero = half.size // 2
            assert keys.tolist() == [key - zero for key in
                                     reference_keys(half.lo.tolist(), span, lags)]
            assert sums.tolist() == [merged[lag] for lag in lags]


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
    tm = compose(CascadeConfig.from_labels(range(n_delays), n_delays))
    model = expand(tm, symmetry)
    text = render_text(model)
    assert (len(model.terms), hashlib.sha256(text.encode()).hexdigest()) == \
        FROZEN[n_delays, symmetry]
    # The baseline before normalization, 1/2^(2n) factor included.
    assert tm.large_delay_constant(int(symmetry)) / 4 ** tm.stage_count == 0.5


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
    # a 7-delay chain's correlations hold 32 768 pairs (8 MiB charged), its
    # cells 331 330 rows of 14 columns (0.138 GiB); each int64 cell array
    # alone would take 37 MB
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


def test_eleven_delay_expansion_is_refused_before_its_pairs():
    # each side of an 11-delay chain has 2 x 1024 rows, so its correlations
    # would hold 2 x 2048^2 pairs of 12 columns, charged 3 GiB: the refusal
    # comes before any pair is built (they would take 448 MiB)
    tm = compose(CascadeConfig.from_labels(range(11), 11))
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionTooLargeError,
                           match=r"^expanding 11 delays would need 3 GiB of integer rows"):
            expand(tm, ExchangeSymmetry.SYMMETRIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
