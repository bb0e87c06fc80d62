"""Closed-form coincidence models derived from a cascade transfer matrix.

``expand`` squares the two-amplitude coincidence density symbolically and
integrates it term by term against the factorable joint spectrum.  Each
surviving term is a product of the two correlation functions evaluated at
rational combinations of the delays:

    R_N(taus) = sum_k  coeff_k * g_plus(p_k . taus) * g_minus(m_k . taus)

with the constant term normalized to 1 (the large-delay baseline).  This
mechanically reproduces every closed form quoted for the one-, two- and
three-delay cascades, including the 28-term three-delay expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize_scalar

from .cascade import (
    TransferMatrix,
    combo_dot,
    combo_halve,
    combo_is_zero,
    combo_neg,
    combo_add,
    combo_sub,
    zero_combo,
)
from .spectra import ExchangeSymmetry, JointSpectrum

__all__ = [
    "CosTerm",
    "AnalyticModel",
    "expand",
    "evaluate",
    "swap_rule",
    "antisymmetric_equivalence_check",
    "asymptotic_prune",
    "render_text",
    "render_latex",
]


def _canonical_arg(combo):
    """Flip the sign so the first nonzero coefficient is positive.

    Valid because every factor of a term is even in its own argument.
    """
    for c in combo:
        if c > 0:
            return combo
        if c < 0:
            return combo_neg(combo)
    return combo


@dataclass(frozen=True)
class CosTerm:
    """coeff * g_plus(plus_arg . taus) * g_minus(minus_arg . taus)."""

    coeff: Fraction
    plus_arg: tuple
    minus_arg: tuple

    @property
    def is_constant(self) -> bool:
        return combo_is_zero(self.plus_arg) and combo_is_zero(self.minus_arg)


@dataclass(frozen=True)
class AnalyticModel:
    """Normalized coincidence probability as a canonical term list."""

    terms: tuple  # tuple[CosTerm, ...], sorted, constant first
    n_delays: int
    symmetry: ExchangeSymmetry
    #: Unnormalized baseline: R(taus -> inf) including the 1/2^(2n) factor.
    raw_baseline: Fraction = Fraction(1)

    @property
    def constant(self) -> Fraction:
        for t in self.terms:
            if t.is_constant:
                return t.coeff
        return Fraction(0)


def _merge(terms, n_delays, symmetry, raw_baseline) -> AnalyticModel:
    merged: dict = {}
    for coeff, plus_arg, minus_arg in terms:
        key = (_canonical_arg(plus_arg), _canonical_arg(minus_arg))
        merged[key] = merged.get(key, Fraction(0)) + coeff
    out = tuple(
        CosTerm(coeff, p, m)
        for (p, m), coeff in sorted(merged.items())
        if coeff != 0
    )
    return AnalyticModel(out, n_delays, symmetry, raw_baseline)


def expand(tm: TransferMatrix, symmetry: ExchangeSymmetry) -> AnalyticModel:
    """Symbolic term-by-term integration of the squared coincidence density.

    The product amplitude A(ws) D(wi) + s B(ws) C(wi) is collected into
    terms c_k exp(-i (ws a_k + wi b_k)); squaring pairs them, and the
    rewrite ws a + wi b = (wp + W_plus)(a+b)/2 + W_minus (a-b)/2 turns each
    pair into a g_plus/g_minus product with half-integer delay arguments.
    Conjugate pairs merge to real cosine terms, and the whole sum is
    divided by its own large-delay constant.
    """
    n = tm.n_delays
    # Merge the two-amplitude product by the (signal, idler) exponent pair.
    prod: dict = {}
    for route_sign, (first, second) in (
        (Fraction(1), (tm.A, tm.D)),
        (Fraction(int(symmetry)), (tm.B, tm.C)),
    ):
        for a_amp, a_combo in first.terms:
            for b_amp, b_combo in second.terms:
                key = (a_combo, b_combo)
                prod[key] = prod.get(key, Fraction(0)) + route_sign * a_amp * b_amp
    entries = [(amp, key[0], key[1]) for key, amp in prod.items() if amp != 0]

    terms = []
    constant = Fraction(0)
    for k, (ck, ak, bk) in enumerate(entries):
        constant += ck * ck
        for cl, al, bl in entries[k + 1:]:
            u = combo_sub(ak, al)
            v = combo_sub(bk, bl)
            plus_arg = combo_halve(combo_add(u, v))
            minus_arg = combo_halve(combo_sub(u, v))
            terms.append((2 * ck * cl, plus_arg, minus_arg))
    if constant == 0:
        raise ValueError("cascade has zero asymptotic coincidence baseline")
    terms.append((constant, zero_combo(n), zero_combo(n)))
    normalized = [(c / constant, p, m) for c, p, m in terms]
    raw_baseline = constant / Fraction(2) ** (2 * tm.stage_count)
    return _merge(normalized, n, symmetry, raw_baseline)


def evaluate(model: AnalyticModel, js: JointSpectrum, taus):
    """Numeric R_N at concrete delays (entries may be numpy arrays)."""
    if js.symmetry is not model.symmetry:
        raise ValueError("joint spectrum symmetry does not match the model")
    if len(taus) != model.n_delays:
        raise ValueError(f"expected {model.n_delays} delays, got {len(taus)}")
    total = 0.0
    for term in model.terms:
        value = float(term.coeff)
        if not combo_is_zero(term.plus_arg):
            arg = combo_dot(term.plus_arg, taus)
            value = value * np.cos(js.pump_frequency * arg) * js.plus.corr(arg)
        if not combo_is_zero(term.minus_arg):
            arg = combo_dot(term.minus_arg, taus)
            value = value * js.minus.corr(arg)
        total = total + value
    return total


def swap_rule(model: AnalyticModel) -> AnalyticModel:
    """Model for the swapped input state (|1,1> <-> |2002>).

    Exchanges the sum/difference roles of every argument and flips the
    sign of all non-constant coefficients.
    """
    swapped = []
    for t in model.terms:
        coeff = t.coeff if t.is_constant else -t.coeff
        swapped.append((coeff, t.minus_arg, t.plus_arg))
    return _merge(swapped, model.n_delays, model.symmetry, model.raw_baseline)


def antisymmetric_equivalence_check(tm_a: TransferMatrix,
                                    tm_b: TransferMatrix) -> bool:
    """True iff the two cascades are indistinguishable for fermionic pairs."""
    model_a = expand(tm_a, ExchangeSymmetry.ANTISYMMETRIC)
    model_b = expand(tm_b, ExchangeSymmetry.ANTISYMMETRIC)
    return model_a.terms == model_b.terms


def _max_abs_corr_product(js: JointSpectrum, p_fix: float, p_slope: float,
                          m_fix: float, m_slope: float) -> float:
    """max over t of |corr_plus(p_fix + p_slope t) * corr_minus(m_fix + m_slope t)|."""

    def neg_mag(t):
        return -abs(js.plus.corr(p_fix + p_slope * t)) * abs(
            js.minus.corr(m_fix + m_slope * t)
        )

    if p_slope == 0 and m_slope == 0:
        return -neg_mag(0.0)
    # Bracket with a dense scan, then polish; the factors decay like
    # Gaussians so a generous window suffices.
    sig = min(s for s, sl in ((js.plus.sigma, p_slope), (js.minus.sigma, m_slope)) if sl)
    centers = []
    if p_slope:
        centers.append(-p_fix / p_slope)
    if m_slope:
        centers.append(-m_fix / m_slope)
    lo = min(centers) - 10.0 / sig
    hi = max(centers) + 10.0 / sig
    grid = np.linspace(lo, hi, 4001)
    values = -(
        np.abs(js.plus.corr(p_fix + p_slope * grid))
        * np.abs(js.minus.corr(m_fix + m_slope * grid))
    )
    best = int(np.argmin(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    res = minimize_scalar(neg_mag, bounds=(a, b), method="bounded")
    return max(-res.fun, -values[best])


def asymptotic_prune(model: AnalyticModel, fixed: dict, swept: int,
                     js: JointSpectrum, threshold: float) -> AnalyticModel:
    """Drop terms whose peak magnitude along the swept delay is below threshold.

    ``fixed`` maps every non-swept delay index to its value.  The carrier
    is bounded by 1, so the peak of each term is the maximum of
    |coeff| * |corr_plus| * |corr_minus| over the swept delay's real line.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    missing = set(range(model.n_delays)) - {swept} - set(fixed)
    if missing:
        raise ValueError(f"fixed delays missing indices {sorted(missing)}")
    # The swept delay at 0.0 adds an exact zero, leaving the fixed part.
    at_origin = [0.0 if i == swept else fixed[i] for i in range(model.n_delays)]
    kept = []
    for term in model.terms:
        if term.is_constant:
            kept.append((term.coeff, term.plus_arg, term.minus_arg))
            continue
        p_fix = combo_dot(term.plus_arg, at_origin)
        m_fix = combo_dot(term.minus_arg, at_origin)
        p_slope = float(term.plus_arg[swept])
        m_slope = float(term.minus_arg[swept])
        peak = abs(float(term.coeff)) * _max_abs_corr_product(
            js, p_fix, p_slope, m_fix, m_slope
        )
        if peak >= threshold:
            kept.append((term.coeff, term.plus_arg, term.minus_arg))
    return _merge(kept, model.n_delays, model.symmetry, model.raw_baseline)


def _render_combo(combo, latex: bool) -> str:
    parts = []
    for i, c in enumerate(combo):
        if c == 0:
            continue
        name = rf"\tau_{{{i + 1}}}" if latex else f"t{i + 1}"
        mag = abs(c)
        piece = name if mag == 1 else (rf"{mag}\,{name}" if latex else f"{mag} {name}")
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts) if parts else "0"


def _render(model: AnalyticModel, latex: bool) -> str:
    chunks = []
    for term in model.terms:
        sign = "-" if term.coeff < 0 else "+"
        mag = abs(term.coeff)
        factors = []
        if mag != 1 or term.is_constant:
            if latex and mag.denominator != 1:
                factors.append(rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}")
            else:
                factors.append(str(mag))
        if not combo_is_zero(term.plus_arg):
            arg = _render_combo(term.plus_arg, latex)
            factors.append(rf"g_+({arg})" if latex else f"g+({arg})")
        if not combo_is_zero(term.minus_arg):
            arg = _render_combo(term.minus_arg, latex)
            factors.append(rf"g_-({arg})" if latex else f"g-({arg})")
        body = (r"\," if latex else " ").join(factors)
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f"{sign} {body}")
    return " ".join(chunks)


def render_text(model: AnalyticModel) -> str:
    """Plain-text rendering, e.g. ``1 - g-(t1)``."""
    return _render(model, latex=False)


def render_latex(model: AnalyticModel) -> str:
    return _render(model, latex=True)
