"""Deterministic regeneration of the six reference figure datasets.

Each figure family (one per preset cascade) is produced for the three
correlation classes, giving 18 trace CSVs plus a thin SVG polyline render
of each.  All data lives in the CSVs; the SVGs are conveniences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .analytic import expand
from .cascade import compose
from .interferogram import (
    _U64,
    AnalyticBackend,
    EnvelopePair,
    SweepSpec,
    Trace,
    _words,
    analytic_sweep,
    sweep,
    write_trace_csv,
)
from .presets import CLASS_SIGMAS, make_spectrum, preset_cascade
from .spectra import ExchangeSymmetry

__all__ = ["FIGURES", "generate_figures", "render_svg"]


@dataclass(frozen=True)
class FigureSpec:
    """One figure family: a preset swept over its last delay."""

    preset: str
    fixed: dict
    start: float
    stop: float
    samples: int


FIGURES = (
    FigureSpec("homi", {}, -50.0, 50.0, 4001),
    FigureSpec("noon", {}, -50.0, 50.0, 4001),
    FigureSpec("two_param_11", {0: 5.0}, -60.0, 60.0, 4801),
    FigureSpec("two_param_2002", {0: 5.0}, -60.0, 60.0, 4801),
    FigureSpec("three_param_11", {0: 8.0, 1: 22.0}, -80.0, 80.0, 6401),
    FigureSpec("three_param_2002", {0: 8.0, 1: 22.0}, -80.0, 80.0, 6401),
)


def _figure_trace(fig: FigureSpec, sigmas):
    cascade = preset_cascade(fig.preset)
    tm = compose(cascade)
    model = expand(tm, ExchangeSymmetry.SYMMETRIC)
    js = make_spectrum(*sigmas)
    spec = SweepSpec(
        fixed=dict(fig.fixed),
        swept=tm.n_delays - 1,
        start=fig.start,
        stop=fig.stop,
        samples=fig.samples,
    )
    if any(map(any, model.plus)):  # a carrier: the envelopes differ from the trace
        return analytic_sweep(model, js, spec)
    return sweep(AnalyticBackend(model, js), spec), None


def generate_figures(out_dir: str) -> list[str]:
    """Write all figure CSVs and SVGs into ``out_dir``; returns CSV paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fig in FIGURES:
        for class_name, sigmas in CLASS_SIGMAS.items():
            trace, env = _figure_trace(fig, sigmas)
            stem = f"{fig.preset}_{class_name}"
            csv_path = os.path.join(out_dir, stem + ".csv")
            write_trace_csv(csv_path, trace, env)
            render_svg(os.path.join(out_dir, stem + ".svg"), trace, env,
                       title=stem)
            written.append(csv_path)
    return written


#: Points per formatted block of an SVG polyline.
_SVG_BLOCK = 4096
#: SVG canvas size in pixels.
_SVG_WIDTH, _SVG_HEIGHT = 720, 360


@cache
def _svg_tables():
    """Word tables of ``_hundredths_text``, built on first use, never at
    import: the whole parts 0-999 in bytes 0-2, leading blanks as NUL, and
    "." and the two digits of the hundredths 0-99 in bytes 3-5."""
    wholes = _words([(b"%3d" % i).replace(b" ", b"\0") for i in range(1000)])
    cents = _words([b"\0\0\0.%02d" % i for i in range(100)])
    return wholes, cents


def _hundredths_text(points):
    """The ``"%.2f,%.2f"`` text of interleaved (x, y) ``points``, points
    separated by spaces, built from integer hundredths; None where that may
    differ from printf.

    n = rint(100 v) is the correctly rounded count of hundredths unless the
    product 100 v lands exactly on a half: the product's rounding is
    monotone and every half under 1e5 is a double, so a product below a
    half never rounds past it.  Negative values and -0.0, values from 1000
    or counts from 1e5 on, NaN and the infinities are left to printf too.
    Each value's text and separator is one little-endian uint64 word, NUL
    where printf writes nothing; the NULs are dropped at the end.
    """
    if np.signbit(points).any() or not (points < 1e3).all():
        return None
    scaled = points * 100.0
    n = np.rint(scaled)
    if not (n < 1e5).all() or (np.abs(scaled - n) == 0.5).any():
        return None
    n = n.astype(np.intp)
    whole = n // 100
    n -= 100 * whole  # the hundredths
    wholes, hundredths = _svg_tables()
    words = wholes.take(whole)
    words |= hundredths.take(n)
    words[0::2] |= _U64(ord(",") << 48)  # each separator in byte 6
    words[1::2] |= _U64(ord(" ") << 48)
    words[-1] &= _U64(0xFFFFFFFFFFFF)  # none after the last point
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _write_polyline(fh, xs, ys, x0, x1, y0, y1, width, height, pad) -> None:
    """Write the points of one polyline, formatted and written in blocks.

    Each block is ``"%.2f,%.2f"`` per point, built from integer hundredths
    where ``_hundredths_text`` allows and through printf otherwise.
    """
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    for first in range(0, len(xs), _SVG_BLOCK):
        last = min(first + _SVG_BLOCK, len(xs))
        px = pad + (xs[first:last] - x0) * sx
        py = height - pad - (ys[first:last] - y0) * sy
        points = np.column_stack((px, py)).ravel()
        text = _hundredths_text(points)
        if text is None:
            text = " ".join(["%.2f,%.2f"] * (last - first)) % tuple(points.tolist())
        if first:
            fh.write(" ")
        fh.write(text)


def render_svg(path: str, trace: Trace, env: EnvelopePair = None,
               title: str = "") -> None:
    """Minimal line-plot renderer: trace in black, envelopes dashed gray.

    The polylines are streamed to the file in blocks of points, each point
    ``"%.2f,%.2f"`` in pixels.  A block's text is built from the points'
    integer hundredths, several times faster than printf and byte for byte
    the same; a block that holds a value the fast path cannot vouch for
    (``_hundredths_text``) goes through printf.
    """
    pad, width, height = 40.0, _SVG_WIDTH, _SVG_HEIGHT
    x0, x1 = float(trace.taus[0]), float(trace.taus[-1])
    series = [trace.values]
    if env is not None:
        series += [env.upper.values, env.lower.values]
    y0 = min(float(s.min()) for s in series)
    y1 = max(float(s.max()) for s in series)
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    margin = 0.05 * (y1 - y0)
    y0, y1 = y0 - margin, y1 + margin

    polylines = []
    if env is not None:
        polylines += [(bound, 'fill="none" stroke="gray" '
                              'stroke-dasharray="4 3" stroke-width="1"')
                      for bound in (env.upper.values, env.lower.values)]
    polylines.append((trace.values, 'fill="none" stroke="black" stroke-width="1"'))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>\n'
            f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
            f'height="{height - 2 * pad}" fill="none" stroke="black"/>\n'
        )
        for ys, style in polylines:
            fh.write('<polyline points="')
            _write_polyline(fh, trace.taus, ys, x0, x1, y0, y1, width, height, pad)
            fh.write(f'" {style}/>\n')
        fh.write("</svg>\n")
