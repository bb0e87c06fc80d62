"""Command-line surface: experiment configs in, derivations/CSV/SVG out.

Exit codes: 0 success; 1 validation invariant failure; 2 any other
``InputError`` the package raises: a config parse failure, including an
unknown, repeated or no-effect key, a bad sweep section or one longer
than the sweep memory budget, a missing one where a command sweeps or
prunes, a negative prune threshold, a sweep window too short to
reconstruct from or holding no structure, a cascade with no large-delay
coincidences or one whose expansion exceeds its memory budget, delays
whose suggested quadrature grid exceeds the memory budget, a grid so
wide that its weights underflow, linewidths at which every quadrature
weight underflows, or delays and a pump frequency whose sweep values or
quadrature density overflow; 3 cross-backend disagreement above
tolerance; 4 ``UndersampledCarrierError``, a missing or undersampled
carrier; 5 I/O failure.  Library callers catch ``InputError`` for every
refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import figures, validation
from .analytic import (
    asymptotic_prune,
    check_delay_count,
    expand,
    render_latex,
    render_text,
)
from .cascade import InputError, compose
from .config import ConfigError, load_config
from .interferogram import (
    AnalyticBackend,
    QuadratureBackend,
    UndersampledCarrierError,
    analytic_sweep,
    envelopes_numeric,
    fit_gaussian_sigma,
    reconstruct_spectra,
    sweep,
)
from .spectra import correlation_class
from .textout import write_csv_columns, write_trace_csv

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_BACKEND_MISMATCH = 3
EXIT_CARRIER = 4
EXIT_IO = 5

_BACKEND_TOLERANCE = 1e-5


def _load(args, sweep: bool):
    """``(config, tm, model)`` of ``--config``: parsed, composed and expanded.

    With ``sweep`` set, a config without a sweep section is refused once
    its cascade has expanded.
    """
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    config = load_config(args.config)
    check_delay_count(config.cascade.n_delays)
    tm = compose(config.cascade)
    model = expand(tm, config.spectrum.symmetry)
    if sweep and config.sweep is None:
        raise ConfigError("config has no sweep section")
    return config, tm, model


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_derive(args) -> int:
    config, _, model = _load(args, sweep=args.prune)
    if args.prune:
        spec = config.sweep
        model = asymptotic_prune(model, spec.fixed, spec.swept,
                                 config.spectrum, config.prune_threshold)
    lines = [render_text(model)]
    if args.latex:
        lines.append(render_latex(model))
    lines.append(f"terms: {len(model.coeffs)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, tm, model = _load(args, sweep=True)
    backend_name = args.backend or config.backend
    traces = []
    if backend_name in ("analytic", "both"):
        traces.append(sweep(AnalyticBackend(model, config.spectrum), config.sweep))
    if backend_name in ("quadrature", "both"):
        traces.append(sweep(QuadratureBackend(tm, config.spectrum, config.grid),
                            config.sweep))
    out = args.out or "trace.csv"
    write_trace_csv(out, traces[0])
    if len(traces) == 2:
        primary, secondary = traces
        quad_out = out + ".quad.csv" if not out.endswith(".csv") \
            else out[:-4] + ".quad.csv"
        write_trace_csv(quad_out, secondary)
        delta = float(np.abs(primary.values - secondary.values).max())
        sys.stderr.write(f"backend max |delta| = {delta:.3e}\n")
        estimate = secondary.meta["max_error_estimate"]
        sys.stderr.write("quadrature max half-grid estimate = "
                         + ("none (the grid has no half grid)" if math.isnan(estimate)
                            else f"{estimate:.3e}") + "\n")
        if delta > _BACKEND_TOLERANCE:
            return EXIT_BACKEND_MISMATCH
    return EXIT_OK


def cmd_envelope(args) -> int:
    config, _, model = _load(args, sweep=True)
    if args.numeric:
        trace = sweep(AnalyticBackend(model, config.spectrum), config.sweep)
        env = envelopes_numeric(trace, config.spectrum.pump_frequency)
    else:
        trace, env = analytic_sweep(model, config.spectrum, config.sweep)
    write_trace_csv(args.out or "envelope.csv", trace, env)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    config, _, model = _load(args, sweep=True)
    spec = config.sweep
    if not any(map(any, model.plus)):
        raise UndersampledCarrierError("cascade has no carrier to demodulate")
    trace = sweep(AnalyticBackend(model, config.spectrum), spec)
    env = envelopes_numeric(trace, config.spectrum.pump_frequency)
    # Satellite replicas are taken to sit at the first delay's fixed value.
    (w_minus, i_minus), (w_plus, i_plus) = reconstruct_spectra(env, spec.fixed.get(0))
    sigma_minus = fit_gaussian_sigma(w_minus, i_minus)
    sigma_plus = fit_gaussian_sigma(w_plus, i_plus)
    out = args.out or "spectra.csv"
    with open(out, "w") as handle:
        handle.write("omega_minus,intensity_minus,omega_plus,intensity_plus\n")
        write_csv_columns(handle, [w_minus, i_minus, w_plus, i_plus])
    true_plus = config.spectrum.plus.sigma
    true_minus = config.spectrum.minus.sigma
    report = [
        f"fitted sigma_minus = {sigma_minus:.6g} "
        f"(configured {true_minus:.6g}, "
        f"rel. error {abs(sigma_minus - true_minus) / true_minus:.3e})",
        f"fitted sigma_plus  = {sigma_plus:.6g} "
        f"(configured {true_plus:.6g}, "
        f"rel. error {abs(sigma_plus - true_plus) / true_plus:.3e})",
        f"correlation class: {correlation_class(sigma_plus, sigma_minus).value}",
    ]
    sys.stdout.write("\n".join(report) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validation.run_suite(corrupt=args.negative_control)
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        sys.stdout.write(f"{status} {name}: {detail}\n")
    if args.json:
        payload = [
            {"check": name, "passed": passed, "detail": detail}
            for name, passed, detail in results
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return EXIT_OK if all(passed for _, passed, _ in results) else EXIT_INVARIANT


def cmd_figures(args) -> int:
    out_dir = args.out or "figs"
    written = figures.generate_figures(out_dir)
    sys.stdout.write(f"wrote {len(written)} trace CSVs to {out_dir}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton-cascade",
        description="Simulate and derive cascaded two-photon interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, backend=False):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--out", help="output path")
        if backend:
            p.add_argument("--backend",
                           choices=("analytic", "quadrature", "both"))

    p = sub.add_parser("derive", help="print the closed-form model")
    common(p)
    p.add_argument("--latex", action="store_true", help="also render LaTeX")
    p.add_argument("--prune", action="store_true",
                   help="drop terms negligible at the fixed delays")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("sweep", help="sample a delay sweep to CSV")
    common(p, backend=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("envelope", help="sweep with envelope columns")
    common(p)
    p.add_argument("--numeric", action="store_true",
                   help="extract envelopes by Fourier demodulation")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("reconstruct",
                       help="recover marginal spectra from an envelope sweep")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("validate", help="run the physics invariant suite")
    p.add_argument("--json", help="also write results as JSON")
    p.add_argument("--negative-control", metavar="CHECK",
                   choices=validation.CHECK_NAMES,
                   help="deliberately corrupt one check to confirm "
                        "failures are reported")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figures", help="regenerate all figure datasets")
    p.add_argument("--out", help="output directory (default: figs)")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UndersampledCarrierError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CARRIER
    except InputError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
