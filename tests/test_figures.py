"""SVG point text against printf ``"%.2f"``, the format it replaced."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cascade import textout
from biphoton_cascade.textout import _hundredths_text, write_polyline


def printf(points) -> str:
    return " ".join(["%.2f,%.2f"] * (len(points) // 2)) % tuple(np.asarray(points).tolist())


def printf_polyline(xs, ys, x0, x1, y0, y1, width, height, pad) -> str:
    """``write_polyline`` as it was: every block through printf."""
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    blocks = []
    for first in range(0, len(xs), textout._SVG_BLOCK):
        last = min(first + textout._SVG_BLOCK, len(xs))
        px = pad + (xs[first:last] - x0) * sx
        py = height - pad - (ys[first:last] - y0) * sy
        blocks.append(printf(np.column_stack((px, py)).ravel()))
    return " ".join(blocks)


def check(values) -> bool:
    """Fast text, where given, equals printf's; True iff it was given."""
    points = np.asarray(values, dtype=float)
    text = _hundredths_text(points)
    if text is not None:
        assert text == printf(points)
    return text is not None


def test_exact_halves_and_their_neighbours():
    k = np.arange(0, 100000, 7, dtype=float)
    halves = (k + 0.5) / 100.0
    for values in (halves, np.nextafter(halves, 0.0), np.nextafter(halves, 2e3),
                   k / 100.0, (k + 0.499999) / 100.0, (k + 0.500001) / 100.0):
        for block in np.array_split(values, 61):
            check(block[: len(block) // 2 * 2])


def test_eighths_are_left_to_printf():
    # k/8 * 100 = 12.5 k: every odd k lands exactly on a half.
    eighths = np.arange(0, 8000, dtype=float) / 8.0
    assert not check(eighths)
    assert check(eighths[::2])


def test_signs_zeros_and_range():
    assert check([0.0, 0.0])
    assert check([5e-324, 1e-300])
    assert check([999.99, 999.994999])
    assert not check([-0.0, 1.0])
    assert not check([1.0, -0.001])
    assert not check([-3.5, -700.25])
    assert not check([999.995, 1.0])
    assert not check([1000.0, 1.0])
    assert not check([1e300, 1.0])
    assert not check([np.nan, 1.0])
    assert not check([np.inf, 1.0])


def test_ordinary_points_take_the_fast_path():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4095, 4096):
        points = np.column_stack((rng.uniform(40, 680, n), rng.uniform(40, 320, n))).ravel()
        assert check(points)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40)
       .map(lambda v: v[: len(v) // 2 * 2] or [0.0, 0.0]))
@settings(max_examples=300, deadline=None)
def test_any_floats_match_printf(values):
    check(values)


@given(st.integers(0, 99999), st.integers(-4, 4), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_near_halves_match_printf(k, ulps, n):
    v = (k + 0.5) / 100.0
    for _ in range(abs(ulps)):
        v = np.nextafter(v, np.inf if ulps > 0 else -np.inf)
    check([v, 1.0] * n)


@given(st.integers(1, 2 * textout._SVG_BLOCK + 3), st.floats(-1e3, 1e3), st.data())
@settings(max_examples=25, deadline=None)
def test_polyline_matches_printf(n, offset, data):
    """Whole polylines, fast and printf blocks mixed, odd lengths included."""
    xs = np.linspace(-5.0, 5.0, n) + offset
    ys = np.sin(xs) * data.draw(st.floats(0.0, 1e3))
    ys[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([0.0, 1.0, 7.0]))
    y0, y1 = float(ys.min()) - data.draw(st.sampled_from([0.0, 0.5, 1e-3])), float(ys.max()) + 0.5
    args = (xs, ys, float(xs[0]), float(xs[-1]) + 1.0, y0, y1, 720, 360, 40.0)
    fh = io.StringIO()
    write_polyline(fh, *args)
    assert fh.getvalue() == printf_polyline(*args)
