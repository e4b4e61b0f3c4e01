"""Numerical workbench for generalized Hardy/Hilbert coefficient inequalities.

Submodules
----------
seqspace      weighted sequence space: prefix-ratio norm, slow-decay generator
hardyspace    analytic polynomials: boundary norms, pairing, factorization
bmoa          Carleson boxes, the K constant, mean oscillation
inequalities  weighted sums, bilinear forms, Hankel best constants, witnesses
harness       randomized property suite with a deterministic report
cli           command-line front end (one subcommand per engine)

Importing the package loads none of them.  A public name resolves on first
access (PEP 562): ``__getattr__`` looks it up in ``_HOME``, the one map
from each name in ``__all__`` to its home module, imports that module and
binds the name here, so later lookups are plain attribute reads.  A
submodule name imports the submodule, as ``import hardyhilbert.<name>``
does; ``from hardyhilbert import *`` resolves all of ``__all__``.
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "bmoa": (
        "Arc", "CarlesonReport", "K_LIMIT", "bmo_seminorm", "carleson_constant",
        "dyadic_arc_family", "k_constant", "k_term", "sweep_is_bounded",
    ),
    "hardyspace": (
        "AnalyticPoly", "ConvergenceError",
        "cauchy_product", "dual_pairing", "factorization_report",
        "hp_norm", "phase_sequence", "read_polynomial_csv",
        "write_polynomial_csv",
    ),
    "harness": (
        "SuiteConfig", "SuiteReport", "run_suite", "sample_polynomial", "sample_xsequence",
    ),
    "inequalities": (
        "EquivalenceReport", "OperatorNormEstimate", "best_constant_scan",
        "equivalence_witness", "hardy_degree_bound_check", "hardy_ratio", "hardy_sum",
        "hilbert_form", "matrix_norm",
    ),
    "seqspace": (
        "HARMONIC", "POWER", "SlowDecayTrace", "XSequence", "classic_sequence",
        "prefix_ratios", "read_sequence_csv", "slow_decay_report", "slow_decay_sequence",
        "trace_csv", "trace_to_xsequence", "verify_margins", "write_sequence_csv", "xnorm",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
