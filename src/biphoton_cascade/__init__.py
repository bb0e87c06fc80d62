"""Simulator and symbolic derivation engine for cascaded two-photon
interferometers with independently tunable delays.

Workflow: describe a cascade (``CascadeConfig`` or a named preset), compose
it into a 2x2 ``TransferMatrix``, then either ``expand`` it into a
closed-form ``AnalyticModel`` over the correlation functions of the joint
spectrum, or integrate it numerically with the quadrature oracle.  The
interferogram module turns either backend into delay sweeps, envelopes,
spectral reconstructions, and structure detection; the textout module
writes traces as CSV.
"""

from .analytic import (
    AnalyticModel,
    ExpansionTooLargeError,
    ZeroBaselineError,
    antisymmetric_equivalence_check,
    asymptotic_prune,
    evaluate,
    expand,
    render_latex,
    render_text,
    swap_rule,
)
from .cascade import (
    CascadeConfig,
    InputError,
    Stage,
    TransferMatrix,
    compose,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .figures import generate_figures
from .interferogram import (
    AnalyticBackend,
    EnvelopePair,
    QuadratureBackend,
    Structure,
    SweepSpec,
    Trace,
    analytic_sweep,
    detect_structures,
    envelopes_analytic,
    envelopes_numeric,
    fit_gaussian_sigma,
    reconstruct_spectra,
    sweep,
)
from .presets import (
    CLASS_SIGMAS,
    PRESETS,
    make_spectrum,
    preset_cascade,
    single_delay_chain,
    three_delay_chain,
    two_delay_chain,
)
from .quadrature import (
    GridSpec,
    GridTooLargeError,
    integrate_R,
    integrate_R_with_error,
    suggested_grid,
)
from .spectra import (
    CorrelationClass,
    ExchangeSymmetry,
    JointSpectrum,
    ProfileKind,
    SpectralProfile,
    correlation_class,
)
from .textout import write_trace_csv
from .validation import run_suite

__version__ = "0.1.0"

__all__ = [
    "AnalyticBackend",
    "AnalyticModel",
    "CLASS_SIGMAS",
    "CascadeConfig",
    "ConfigError",
    "CorrelationClass",
    "EnvelopePair",
    "ExchangeSymmetry",
    "ExperimentConfig",
    "GridSpec",
    "GridTooLargeError",
    "InputError",
    "JointSpectrum",
    "PRESETS",
    "ProfileKind",
    "QuadratureBackend",
    "SpectralProfile",
    "Stage",
    "Structure",
    "SweepSpec",
    "Trace",
    "TransferMatrix",
    "ZeroBaselineError",
    "ExpansionTooLargeError",
    "analytic_sweep",
    "antisymmetric_equivalence_check",
    "asymptotic_prune",
    "compose",
    "correlation_class",
    "detect_structures",
    "envelopes_analytic",
    "envelopes_numeric",
    "evaluate",
    "expand",
    "fit_gaussian_sigma",
    "generate_figures",
    "integrate_R",
    "integrate_R_with_error",
    "load_config",
    "make_spectrum",
    "parse_config",
    "preset_cascade",
    "reconstruct_spectra",
    "render_latex",
    "render_text",
    "run_suite",
    "single_delay_chain",
    "suggested_grid",
    "swap_rule",
    "sweep",
    "three_delay_chain",
    "two_delay_chain",
    "write_trace_csv",
    "__version__",
]
