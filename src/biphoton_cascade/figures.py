"""Deterministic regeneration of the six reference figure datasets.

Each figure family (one per preset cascade) is produced for the three
correlation classes, giving 18 trace CSVs plus a thin SVG polyline render
of each.  All data lives in the CSVs; the SVGs are conveniences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .analytic import expand
from .cascade import compose
from .interferogram import AnalyticBackend, EnvelopePair, SweepSpec, Trace, analytic_sweep, sweep
from .presets import CLASS_SIGMAS, make_spectrum, preset_cascade
from .spectra import ExchangeSymmetry
from .textout import write_polyline, write_trace_csv

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


#: SVG canvas size in pixels.
_SVG_WIDTH, _SVG_HEIGHT = 720, 360


def render_svg(path: str, trace: Trace, env: EnvelopePair = None,
               title: str = "") -> None:
    """Minimal line-plot renderer: trace in black, envelopes dashed gray.

    The polylines are streamed to the file in blocks of points, each point
    ``"%.2f,%.2f"`` in pixels, by ``textout.write_polyline``.
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
            write_polyline(fh, trace.taus, ys, x0, x1, y0, y1, width, height, pad)
            fh.write(f'" {style}/>\n')
        fh.write("</svg>\n")
