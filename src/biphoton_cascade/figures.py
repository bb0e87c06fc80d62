"""Deterministic regeneration of the six reference figure datasets.

Each figure family (one per preset cascade) is produced for the three
correlation classes, giving 18 trace CSVs plus a thin SVG polyline render
of each.  All data lives in the CSVs; the SVGs are conveniences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .analytic import expand
from .cascade import compose
from .interferogram import (
    AnalyticBackend,
    EnvelopePair,
    SweepSpec,
    Trace,
    envelopes_analytic,
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
    with_envelope: bool


FIGURES = (
    FigureSpec("homi", {}, -50.0, 50.0, 4001, False),
    FigureSpec("noon", {}, -50.0, 50.0, 4001, True),
    FigureSpec("two_param_11", {0: 5.0}, -60.0, 60.0, 4801, True),
    FigureSpec("two_param_2002", {0: 5.0}, -60.0, 60.0, 4801, True),
    FigureSpec("three_param_11", {0: 8.0, 1: 22.0}, -80.0, 80.0, 6401, True),
    FigureSpec("three_param_2002", {0: 8.0, 1: 22.0}, -80.0, 80.0, 6401, True),
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
    trace = sweep(AnalyticBackend(model, js), spec)
    env = envelopes_analytic(model, js, spec) if fig.with_envelope else None
    return trace, env


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
#: ``"%.2f"`` fields of the fast path: three integer digits, the point, two
#: decimals and a separator.
_FIELD = 7


def _hundredths_text(points):
    """The ``"%.2f,%.2f"`` text of interleaved (x, y) ``points``, points
    separated by spaces, built from integer hundredths; None where that may
    differ from printf.

    n = rint(100 v) is the correctly rounded count of hundredths unless the
    product 100 v lands exactly on a half: the product's rounding is
    monotone and every half under 1e5 is a double, so a product below a
    half never rounds past it.  Negative values and -0.0, values from 1000
    or counts from 1e5 on, NaN and the infinities are left to printf too.
    """
    if np.signbit(points).any() or not (points < 1e3).all():
        return None
    scaled = points * 100.0
    n = np.rint(scaled)
    if not (n < 1e5).all() or (np.abs(scaled - n) == 0.5).any():
        return None
    whole, cents = np.divmod(n.astype(np.int64), 100)
    text = np.empty((len(points), _FIELD), dtype=np.uint8)
    text[:, 0] = whole // 100 + 48
    text[:, 1] = whole // 10 % 10 + 48
    text[:, 2] = whole % 10 + 48
    text[:, 3] = ord(".")
    text[:, 4] = cents // 10 + 48
    text[:, 5] = cents % 10 + 48
    text[0::2, 6] = ord(",")
    text[1::2, 6] = ord(" ")
    keep = np.ones(text.shape, dtype=bool)
    keep[:, 0] = whole >= 100
    keep[:, 1] = whole >= 10
    keep[-1, 6] = False
    return text[keep].tobytes().decode("ascii")


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
