"""Self-check suite: cross-backend and structural invariants.

Each check returns (name, passed, detail).  The suite is what the CLI
``validate`` subcommand runs; the test suite exercises the same physics at
higher resolution.  ``corrupt`` names a check to deliberately perturb, as
a negative control that failures are detected and reported.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import presets
from .analytic import antisymmetric_equivalence_check, evaluate, expand, swap_rule
from .cascade import compose
from .interferogram import SweepSpec, AnalyticBackend, envelopes_analytic, sweep
from .quadrature import integrate_R_with_error, suggested_grid
from .spectra import ExchangeSymmetry

__all__ = ["run_suite", "CHECK_NAMES"]

_SEED = 20240817


def _spectra(symmetry):
    return [
        presets.make_spectrum(sp, sm, symmetry)
        for sp, sm in presets.CLASS_SIGMAS.values()
    ]


def _check_unitarity(rng, corrupt):
    worst = 0.0
    for name in presets.PRESETS:
        tm = compose(presets.preset_cascade(name))
        for _ in range(20):
            omega = rng.uniform(5.0, 30.0)
            taus = rng.uniform(-5.0, 5.0, tm.n_delays)
            m = np.asarray(tm.evaluate(omega, taus), dtype=complex).reshape(2, 2)
            defect = np.abs(m @ m.conj().T - np.eye(2)).max()
            worst = max(worst, float(defect))
    if corrupt:
        worst += 1.0
    return worst <= 1e-12, f"max unitarity defect {worst:.2e}"


def _check_oracle(rng, corrupt):
    """Closed form against the oracle, whose half-grid estimates must agree.

    Both the largest difference and the largest estimate must stay within
    1e-6: an oracle that cannot certify its own values checks nothing.
    The detail also states the range of each axis's node count.
    """
    worst = estimate = 0.0
    nodes = []
    for name in presets.PRESETS:
        tm = compose(presets.preset_cascade(name))
        for symmetry in ExchangeSymmetry:
            model = expand(tm, symmetry)
            for js in _spectra(symmetry):
                for _ in range(3):
                    taus = rng.uniform(-8.0, 8.0, tm.n_delays)
                    closed = float(evaluate(model, js, taus))
                    grid = suggested_grid(tm, js, taus)
                    nodes.append(grid.nodes)
                    numeric, error = integrate_R_with_error(tm, js, taus, grid)
                    worst = max(worst, abs(closed - numeric))
                    estimate = max(estimate, error)
    if corrupt:
        worst += 1.0
    (plus_lo, minus_lo), (plus_hi, minus_hi) = np.min(nodes, 0), np.max(nodes, 0)
    return (worst <= 1e-6 and estimate <= 1e-6,
            f"max |closed-form - quadrature| {worst:.2e}, "
            f"max half-grid estimate {estimate:.2e} over grids "
            f"N+ {plus_lo}-{plus_hi}, N- {minus_lo}-{minus_hi}")


def _check_parity(chain, counts, odd, even, detail, rng, corrupt):
    """Each chain of ``counts`` splitters matches the preset of its parity.

    ``odd`` and ``even`` name those presets; ``corrupt`` expects the other
    parity's model for the last chain.
    """
    odd, even = (expand(compose(presets.preset_cascade(name)), ExchangeSymmetry.SYMMETRIC)
                 for name in (odd, even))
    ok = all(expand(compose(chain(n)), ExchangeSymmetry.SYMMETRIC).same_terms(
        odd if (n % 2 == 1) != (corrupt and n == counts[-1]) else even)
        for n in counts)
    return ok, detail


def _check_swap(rng, corrupt):
    ok = True
    for first, second in presets.PRESET_PAIRS:
        model_a = expand(
            compose(presets.preset_cascade(first)), ExchangeSymmetry.SYMMETRIC
        )
        model_b = expand(
            compose(presets.preset_cascade(second)), ExchangeSymmetry.SYMMETRIC
        )
        swapped = swap_rule(model_a)
        if corrupt:
            swapped = model_a
        ok = ok and swapped.same_terms(model_b)
    return ok, "swap rule maps each |1,1> model to its |2002> counterpart"


def _check_fermionic(rng, corrupt):
    ok = True
    for first, second in presets.PRESET_PAIRS:
        tm_a = compose(presets.preset_cascade(first))
        tm_b = compose(presets.preset_cascade(second))
        same = antisymmetric_equivalence_check(tm_a, tm_b)
        if corrupt:
            same = not same
        ok = ok and same
    return ok, "antisymmetric expansions of each pair are term-identical"


def _check_envelopes(rng, corrupt):
    worst = -1.0
    for name, fixed in (("noon", {}), ("two_param_2002", {0: 5.0})):
        tm = compose(presets.preset_cascade(name))
        model = expand(tm, ExchangeSymmetry.SYMMETRIC)
        for js in _spectra(ExchangeSymmetry.SYMMETRIC):
            spec = SweepSpec(fixed=dict(fixed), swept=tm.n_delays - 1,
                             start=-12.0, stop=12.0, samples=1201)
            trace = sweep(AnalyticBackend(model, js), spec)
            env = envelopes_analytic(model, js, spec)
            breach = max(
                float((trace.values - env.upper.values).max()),
                float((env.lower.values - trace.values).max()),
            )
            worst = max(worst, breach)
    if corrupt:
        worst += 1.0
    return worst <= 1e-9, f"max envelope breach {worst:.2e}"


_CHECKS = {
    "transfer-unitarity": _check_unitarity,
    "oracle-equivalence": _check_oracle,
    "parity-single-delay": partial(_check_parity, presets.single_delay_chain,
                                   range(1, 7), "homi", "noon",
                                   "n=1..6 alternation H/N/H/N/H/N"),
    "parity-two-delay": partial(_check_parity, presets.two_delay_chain, range(2, 6),
                                "two_param_2002", "two_param_11",
                                "n=2..5 matches the two-splitter/three-splitter models"),
    "parity-three-delay": partial(
        _check_parity, presets.three_delay_chain, range(3, 7), "three_param_11",
        "three_param_2002", "n=3..6 matches the three-splitter/four-splitter models"),
    "swap-rule": _check_swap,
    "fermionic-indistinguishability": _check_fermionic,
    "envelope-bounds": _check_envelopes,
}

CHECK_NAMES = tuple(_CHECKS)


def run_suite(corrupt: str = None):
    """Run all checks; returns list of (name, passed, detail)."""
    if corrupt is not None and corrupt not in _CHECKS:
        raise ValueError(
            f"unknown check {corrupt!r}; choose from {', '.join(CHECK_NAMES)}"
        )
    rng = np.random.default_rng(_SEED)
    results = []
    for name, check in _CHECKS.items():
        passed, detail = check(rng, corrupt == name)
        results.append((name, bool(passed), detail))
    return results
