"""Self-check suite: cross-backend and structural invariants.

Each check returns (name, passed, detail).  The suite is what the CLI
``validate`` subcommand runs; the test suite exercises the same physics at
higher resolution.  ``corrupt`` names a check to deliberately perturb, as
a negative control that failures are detected and reported.
"""

from __future__ import annotations

import numpy as np

from . import presets
from .analytic import antisymmetric_equivalence_check, evaluate, expand, swap_rule
from .cascade import compose
from .interferogram import SweepSpec, AnalyticBackend, envelopes_analytic, sweep
from .quadrature import integrate_R, suggested_grid
from .spectra import ExchangeSymmetry

__all__ = ["run_suite", "CHECK_NAMES"]

_SEED = 20240817

CHECK_NAMES = (
    "transfer-unitarity",
    "oracle-equivalence",
    "parity-single-delay",
    "parity-two-delay",
    "parity-three-delay",
    "swap-rule",
    "fermionic-indistinguishability",
    "envelope-bounds",
)


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
    worst = 0.0
    for name in presets.PRESETS:
        tm = compose(presets.preset_cascade(name))
        for symmetry in ExchangeSymmetry:
            model = expand(tm, symmetry)
            for js in _spectra(symmetry):
                for _ in range(3):
                    taus = rng.uniform(-8.0, 8.0, tm.n_delays)
                    closed = float(evaluate(model, js, taus))
                    grid = suggested_grid(tm, js, taus)
                    numeric = integrate_R(tm, js, taus, grid)
                    worst = max(worst, abs(closed - numeric))
    if corrupt:
        worst += 1.0
    return worst <= 1e-6, f"max |closed-form - quadrature| {worst:.2e}"


def _check_parity_single(rng, corrupt):
    homi = expand(compose(presets.preset_cascade("homi")), ExchangeSymmetry.SYMMETRIC)
    noon = expand(compose(presets.preset_cascade("noon")), ExchangeSymmetry.SYMMETRIC)
    pattern = []
    ok = True
    for n in range(1, 7):
        model = expand(
            compose(presets.single_delay_chain(n)), ExchangeSymmetry.SYMMETRIC
        )
        expected = homi if n % 2 == 1 else noon
        if corrupt and n == 4:
            expected = homi
        match = model.same_terms(expected)
        ok = ok and match
        pattern.append("H" if n % 2 == 1 else "N")
    return ok, f"n=1..6 alternation {'/'.join(pattern)}"


def _check_parity_two(rng, corrupt):
    even = expand(
        compose(presets.preset_cascade("two_param_11")), ExchangeSymmetry.SYMMETRIC
    )
    odd = expand(
        compose(presets.preset_cascade("two_param_2002")), ExchangeSymmetry.SYMMETRIC
    )
    ok = True
    for n in range(2, 6):
        model = expand(
            compose(presets.two_delay_chain(n)), ExchangeSymmetry.SYMMETRIC
        )
        expected = even if n % 2 == 0 else odd
        if corrupt and n == 5:
            expected = even
        ok = ok and model.same_terms(expected)
    return ok, "n=2..5 matches the two-splitter/three-splitter models"


def _check_parity_three(rng, corrupt):
    odd = expand(
        compose(presets.preset_cascade("three_param_11")), ExchangeSymmetry.SYMMETRIC
    )
    even = expand(
        compose(presets.preset_cascade("three_param_2002")), ExchangeSymmetry.SYMMETRIC
    )
    ok = True
    for n in range(3, 7):
        model = expand(
            compose(presets.three_delay_chain(n)), ExchangeSymmetry.SYMMETRIC
        )
        expected = even if n % 2 == 0 else odd
        if corrupt and n == 6:
            expected = odd
        ok = ok and model.same_terms(expected)
    return ok, "n=3..6 matches the three-splitter/four-splitter models"


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
    "parity-single-delay": _check_parity_single,
    "parity-two-delay": _check_parity_two,
    "parity-three-delay": _check_parity_three,
    "swap-rule": _check_swap,
    "fermionic-indistinguishability": _check_fermionic,
    "envelope-bounds": _check_envelopes,
}


def run_suite(corrupt: str = None):
    """Run all checks; returns list of (name, passed, detail)."""
    if corrupt is not None and corrupt not in _CHECKS:
        raise ValueError(
            f"unknown check {corrupt!r}; choose from {', '.join(CHECK_NAMES)}"
        )
    rng = np.random.default_rng(_SEED)
    results = []
    for name in CHECK_NAMES:
        passed, detail = _CHECKS[name](rng, corrupt == name)
        results.append((name, bool(passed), detail))
    return results
