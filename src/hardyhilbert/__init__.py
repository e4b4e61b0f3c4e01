"""Numerical workbench for generalized Hardy/Hilbert coefficient inequalities.

Submodules
----------
seqspace      weighted sequence space: prefix-ratio norm, slow-decay generator
hardyspace    analytic polynomials: boundary norms, pairing, factorization
bmoa          Carleson boxes, the K constant, mean oscillation
inequalities  weighted sums, bilinear forms, Hankel best constants, witnesses
harness       randomized property suite with a deterministic report
cli           command-line front end (one subcommand per engine)
"""

from ._version import __version__
from .bmoa import (
    Arc,
    CarlesonReport,
    K_LIMIT,
    bmo_seminorm,
    carleson_constant,
    dyadic_arc_family,
    k_constant,
    k_term,
    sweep_is_bounded,
)
from .hardyspace import (
    AnalyticPoly,
    ConvergenceError,
    cauchy_product,
    dual_pairing,
    factorization_report,
    hp_norm,
    phase_sequence,
    read_polynomial_csv,
    write_polynomial_csv,
)
from .harness import (
    SuiteConfig,
    SuiteReport,
    run_suite,
    sample_polynomial,
    sample_xsequence,
)
from .inequalities import (
    EquivalenceReport,
    OperatorNormEstimate,
    best_constant_scan,
    equivalence_witness,
    hardy_degree_bound_check,
    hardy_ratio,
    hardy_sum,
    hilbert_form,
    matrix_norm,
)
from .seqspace import (
    HARMONIC,
    POWER,
    SlowDecayTrace,
    XSequence,
    classic_sequence,
    prefix_ratios,
    read_sequence_csv,
    slow_decay_report,
    slow_decay_sequence,
    trace_csv,
    trace_to_xsequence,
    verify_margins,
    write_sequence_csv,
    xnorm,
)

__all__ = [
    "__version__",
    "Arc", "CarlesonReport", "K_LIMIT", "bmo_seminorm", "carleson_constant",
    "dyadic_arc_family", "k_constant", "k_term", "sweep_is_bounded",
    "AnalyticPoly", "ConvergenceError",
    "cauchy_product", "dual_pairing", "factorization_report",
    "hp_norm", "phase_sequence", "read_polynomial_csv",
    "write_polynomial_csv",
    "SuiteConfig", "SuiteReport", "run_suite", "sample_polynomial", "sample_xsequence",
    "EquivalenceReport", "OperatorNormEstimate", "best_constant_scan",
    "equivalence_witness", "hardy_degree_bound_check", "hardy_ratio", "hardy_sum",
    "hilbert_form", "matrix_norm",
    "HARMONIC", "POWER", "SlowDecayTrace", "XSequence", "classic_sequence",
    "prefix_ratios", "read_sequence_csv", "slow_decay_report", "slow_decay_sequence", "trace_csv",
    "trace_to_xsequence", "verify_margins", "write_sequence_csv", "xnorm",
]
