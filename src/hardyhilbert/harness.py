"""Randomized property suite over the whole workbench.

Each property is a check ``(rng, case) -> (margin, witness_inputs)`` that
holds only its own maths; one driver, ``_run_property``, runs every check.
It draws each case's generator from (seed, property id, case index), so
the same configuration reproduces the same report bit for bit no matter
how cases are scheduled.  A case passes only when its margin is <= 0, so
a NaN margin fails.  Failures are recorded as data (inputs kept in
re-runnable form), never raised.

Polynomials come from one sampler, ``sample_polynomial``, which builds each
from exactly max(1, degree) roots drawn at once, each inside or outside the
circle with probability 1/2 and none within 0.05 of it, so every sample has
the degree asked for and factorizes; no draw is rejected or redrawn.

Engine calls go through the module objects (seqspace.xnorm, ...), which
keeps the properties honest under instrumentation and lets a test inject
a corrupted operation to confirm the suite notices.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bmoa, hardyspace, inequalities, seqspace
from ._version import __version__

DEFAULT_CASES = {
    "bridge_identity": 150,
    "norm_scaling": 100,
    "slow_decay_certificate": 40,
    "pairing_phase_identity": 60,
    "hardy_degree_bound": 25,
    "factorization_contract": 25,
    "witness_closure": 10,
    "carleson_bounded": 3,
}

TOLERANCES = {
    "bridge_rel": 1e-12,
    "norm_rel": 1e-12,
    "value_rule_rel": 2.0**-51,   # 2 eps: np.power against the trace's scalar pow
    "pairing_rel": 1e-12,
    "factor_rel": 1e-8,
    "witness_gap": 1e-8,
    "scan_monotone": 1e-10,
    "carleson_scale_rel": 1e-10,
    "box_closed_form_rel": 1e-12,
}
MAX_SEQUENCE_LEN = 96
MAX_POLY_DEGREE = 10
GRID_SIZE = 4096

_PROPERTY_IDS = {name: i for i, name in enumerate(DEFAULT_CASES)}
_MAX_WITNESSES = 5
_SEED_MASK = (1 << 64) - 1


@dataclass
class SuiteConfig:
    seed: int = 0
    cases: dict = field(default_factory=dict)  # overrides of DEFAULT_CASES

    def case_count(self, name: str) -> int:
        n = int(self.cases.get(name, DEFAULT_CASES[name]))
        if n < 1:
            raise ValueError(f"{name}: case count must be at least 1, got {n}")
        return n


@dataclass
class PropertyResult:
    name: str
    cases: int
    failures: int
    worst_margin: float   # max over cases of (error - tolerance); pass <= 0
    witnesses: list = field(default_factory=list)


@dataclass
class SuiteReport:
    properties: list
    passed: bool
    seed: int
    fingerprint: dict

    def to_dict(self) -> dict:
        return {
            "properties": [{**asdict(p), "worst_margin": _payload(p.worst_margin)}
                           for p in self.properties],
            "pass": self.passed,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


def _case_rng(seed: int, prop: str, case: int) -> np.random.Generator:
    return np.random.default_rng((seed & _SEED_MASK, _PROPERTY_IDS[prop], case))


def sample_xsequence(rng: np.random.Generator, N: int) -> seqspace.XSequence:
    """Classic, slow-decay, or unit-norm random nonnegative sequence."""
    if N < 1:
        raise ValueError("N must be positive")
    kind = int(rng.integers(0, 3))
    if kind == 0 or N < 2:
        return seqspace.classic_sequence(N)
    if kind == 1:
        r = float(rng.uniform(0.5, 1.0))
        beta = float(rng.uniform(1.05, 3.0))
        return seqspace.trace_to_xsequence(seqspace.slow_decay_sequence(r, beta, N - 1))
    raw = rng.uniform(0.0, 1.0, N)
    return seqspace.XSequence(raw / seqspace.xnorm(seqspace.XSequence(raw)))


def sample_polynomial(rng: np.random.Generator, degree: int) -> hardyspace.AnalyticPoly:
    """A polynomial of degree exactly max(1, degree), built from its roots.

    Each root lies inside or outside the circle with probability 1/2, at a
    radius uniform in [0.27, 0.95) or [1.05, 3.5) and an argument uniform on
    the circle, so every root keeps at least 0.05 from it (zeros that far
    off let the factorization converge on its first grid).  The
    coefficients, from np.poly, are scaled to unit 2-norm and then by a
    factor uniform in the unit disk.
    """
    d = max(1, int(degree))
    radii = np.where(rng.random(d) < 0.5, rng.uniform(0.27, 0.95, d), rng.uniform(1.05, 3.5, d))
    coeffs = np.poly(radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d)))[::-1]
    scale = np.sqrt(rng.random()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return hardyspace.AnalyticPoly(scale * coeffs / np.linalg.norm(coeffs))


def _payload(value):
    """JSON form of a witness input: sequences, polynomials and arrays become
    lists, and a non-finite float becomes None (JSON null)."""
    if isinstance(value, seqspace.XSequence):
        value = value.values
    if isinstance(value, hardyspace.AnalyticPoly):
        return {"re": _payload(value.coeffs.real), "im": _payload(value.coeffs.imag)}
    if isinstance(value, np.ndarray):
        return [_payload(v) for v in value.tolist()]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


# Each check returns (margin, witness inputs).  The margin may be a sequence
# of component margins; the driver takes their maximum, NaN included.

def _bridge_identity(rng, case):
    la, lb = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    a, b = rng.random(la), rng.random(lb)
    c = sample_xsequence(rng, la + lb - 1)
    lhs = inequalities.hilbert_form(a, b, c)
    product = hardyspace.cauchy_product(a, b)
    rhs = inequalities.hardy_sum(hardyspace.AnalyticPoly(product), c)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return rel - TOLERANCES["bridge_rel"], dict(a=a, b=b, c=c, lhs=lhs, rhs=rhs)


def _norm_scaling(rng, case):
    N = int(rng.integers(1, MAX_SEQUENCE_LEN + 1))
    raw = rng.uniform(0.0, 1.0, N)
    raw[int(rng.integers(0, N))] += 0.5  # keep the norm away from zero
    x = seqspace.XSequence(raw)
    lam = float(rng.uniform(0.0, 4.0))
    scaled = seqspace.XSequence(lam * raw)
    homog = abs(seqspace.xnorm(scaled) - lam * seqspace.xnorm(x))
    homog_rel = homog / max(lam * seqspace.xnorm(x), 1e-300) if lam > 0 else homog
    extended = seqspace.XSequence(np.concatenate([raw, rng.uniform(0.0, 1.0, int(rng.integers(1, 17)))]))
    ext_violation = seqspace.xnorm(x) - seqspace.xnorm(extended)
    ratio_gap = abs(float(seqspace.prefix_ratios(x).max()) - x.xnorm_sq)
    margins = (homog_rel - TOLERANCES["norm_rel"], ext_violation - 1e-14, ratio_gap)
    return margins, dict(values=x, lam=lam)


def _slow_decay_certificate(rng, case):
    r = float(rng.uniform(0.5, 1.0))
    beta = float(rng.uniform(1.05, 3.0))
    N = int(rng.integers(50, 3001))
    t = seqspace.slow_decay_sequence(r, beta, N)
    lowest = float(np.min([m.min() for m in t.margins()]))
    m_nonneg = 0.0 if lowest >= 0.0 else -lowest
    full = seqspace.slow_decay_report(t, s=r + float(rng.uniform(0.01, 0.15)))
    cert, rep = full.certificate, full.infinitude
    m_cert = 0.0 if cert.ok else max(1e-300, -cert.min_margin)
    choice = np.concatenate(list(t.choice()))
    n = np.arange(1.0, N + 1.0)
    rule = np.where(choice == 1, n**-r, 1.0 / n)
    values = np.concatenate(list(t.values()))
    m_rule = float(np.max(np.abs(values - rule) / rule)) - TOLERANCES["value_rule_rel"]
    m_bound = full.export_norm - 2.0 * np.sqrt(beta)
    positions = np.flatnonzero(choice) + 1   # counted from the flags, not the runs
    consistent = (
        rep.power_count == positions.size
        and rep.largest_power_index == (int(positions[-1]) if positions.size else 0)
        and all(d2.running_max >= d1.running_max - 1e-15
                for d1, d2 in zip(rep.decades, rep.decades[1:]))
    )
    m_report = 0.0 if consistent else 1.0
    return (m_nonneg, m_cert, m_rule, m_bound, m_report), dict(r=r, beta=beta, N=N)


def _pairing_phase_identity(rng, case):
    f = sample_polynomial(rng, int(rng.integers(1, 17)))
    c = sample_xsequence(rng, f.degree + 1)
    sq = hardyspace.hp_norm(f, 2) ** 2
    rel_self = abs(hardyspace.dual_pairing(f, f) - sq) / max(sq, 1e-300)
    alpha = hardyspace.phase_sequence(f)
    aligned = hardyspace.AnalyticPoly(alpha * c.values)
    pairing = hardyspace.dual_pairing(f, aligned)
    target = inequalities.hardy_sum(f, c)
    rel_aligned = abs(pairing - target) / max(target, 1e-300)
    tol = TOLERANCES["pairing_rel"]
    return (rel_self - tol, rel_aligned - tol), dict(f=f, c=c)


def _hardy_degree_bound(rng, case):
    f = sample_polynomial(rng, int(rng.integers(1, MAX_POLY_DEGREE + 1)))
    c = sample_xsequence(rng, 2 * f.degree + 1)
    check = inequalities.hardy_degree_bound_check(f, c)
    margin = 0.0 if check.skipped else (check.lhs - check.rhs) / max(check.rhs, 1e-300)
    return margin, dict(f=f, c=c, lhs=check.lhs, rhs=check.rhs)


def _factorization_contract(rng, case):
    f = sample_polynomial(rng, int(rng.integers(1, MAX_POLY_DEGREE + 1)))
    rep = hardyspace.factorization_report(f)
    g, h = rep.g, rep.h
    M = hardyspace._resolve_grid(max(f.degree, g.degree, h.degree), GRID_SIZE)
    fv, gv, hv = (hardyspace._on_circle(p.coeffs, M) for p in (f, g, h))
    f2 = hardyspace.hp_norm(f, 2)
    f1 = hardyspace.hp_norm(f, 1)
    residual = float(np.abs(fv - gv * hv).max())
    defect = abs(f1 - hardyspace.hp_norm(g, 2) * hardyspace.hp_norm(h, 2))
    product = hardyspace.cauchy_product(g.coeffs, h.coeffs)
    padded = np.zeros(product.size, dtype=complex)
    padded[: f.coeffs.size] = f.coeffs
    coeff_err = float(np.abs(product - padded).max())
    tol = TOLERANCES["factor_rel"]
    margins = (residual - tol * f2, defect - tol * f1, coeff_err - tol * f2)
    return margins, dict(f=f, residual=residual, defect=defect)


def _witness_closure(rng, case):
    N = int(rng.integers(2, 25))
    if case % 2 == 0:
        c = seqspace.classic_sequence(2 * N - 1)
    else:
        c = sample_xsequence(rng, 2 * N - 1)
    report = inequalities.equivalence_witness(c, N)
    # boundary quadrature of ||f||_1, an independent route to Parseval's ||v||^2
    quadrature = inequalities.hardy_ratio(report.witness, c)
    scan = inequalities.best_constant_scan(c, sorted({max(1, N // 2), N}))
    margins = [report.gap - TOLERANCES["witness_gap"],
               abs(quadrature - report.hardy_ratio) - TOLERANCES["witness_gap"]]
    margins += [lo.value - hi.value - TOLERANCES["scan_monotone"]
                for lo, hi in zip(scan, scan[1:])]
    return margins, dict(c=c, N=N, gap=report.gap)


def _annulus_box_sum(c: seqspace.XSequence, length: float) -> float:
    """Measure of the annulus 1 - length <= r < 1: 2 pi sum_k k^2 c_k^2 R(2k)."""
    k = np.arange(1, len(c), dtype=float)
    r0 = 1.0 - length
    R = (1.0 - r0 ** (2 * k)) / (2 * k) - (1.0 - r0 ** (2 * k + 2)) / (2 * k + 2)
    return float(2.0 * np.pi * np.sum(k**2 * c.values[1:] ** 2 * R))


def _carleson_bounded(rng, case):
    """Variant 1 sweeps a slow-decay sequence, variants 0 and 2 the classic
    one; variant 2 adds the lam^2 scaling of every box ratio."""
    sweep = {"depth": 6, "centers_per_length": 4}
    tile = 1.0 / sweep["centers_per_length"]
    kscan = bmoa.k_constant(0.999)
    variant = case % 3
    if variant == 1:
        c = seqspace.trace_to_xsequence(
            seqspace.slow_decay_sequence(float(rng.uniform(0.5, 1.0)),
                                         float(rng.uniform(1.1, 2.5)), 95))
    else:
        c = seqspace.classic_sequence(96)
    report = bmoa.carleson_constant(c, **sweep)
    margins = [kscan.value - kscan.limit * (1.0 + 1e-9),
               0.0 if bmoa.sweep_is_bounded(report) else 1.0]
    if variant == 2:
        lam = float(rng.uniform(0.5, 2.0))
        scaled = bmoa.carleson_constant(seqspace.XSequence(lam * c.values), **sweep)
        drift = np.abs(scaled.ratios - lam**2 * report.ratios) / max(report.sup_ratio, 1e-300)
        margins += (drift - TOLERANCES["carleson_scale_rel"]).tolist()
    # the full box and the tiling of an annulus have closed forms of their own
    box_tol = TOLERANCES["box_closed_form_rel"]
    k = np.arange(1, len(c), dtype=float)
    full = float(np.pi * np.sum(k * c.values[1:] ** 2 / (k + 1.0)))
    full_box = report.box_integrals[0].item()        # the family's first arc is the circle
    margins.append(abs(full_box - full) / max(full, 1e-300) - box_tol)
    annulus = _annulus_box_sum(c, tile)
    tiled = sum(report.box_integrals[report.lengths == tile].tolist())   # in family order
    margins.append(abs(tiled - annulus) / max(annulus, 1e-300) - box_tol)
    bmo = bmoa.bmo_seminorm(hardyspace.AnalyticPoly(c.values), 4, 2048)
    bmo_scaled = bmoa.bmo_seminorm(hardyspace.AnalyticPoly(2.0 * c.values), 4, 2048)
    margins.append(abs(bmo_scaled - 2.0 * bmo) / max(bmo, 1e-300) - 1e-12)
    return margins, dict(c=c, variant=variant)


_CHECKS = {
    "bridge_identity": _bridge_identity,
    "norm_scaling": _norm_scaling,
    "slow_decay_certificate": _slow_decay_certificate,
    "pairing_phase_identity": _pairing_phase_identity,
    "hardy_degree_bound": _hardy_degree_bound,
    "factorization_contract": _factorization_contract,
    "witness_closure": _witness_closure,
    "carleson_bounded": _carleson_bounded,
}


def _run_property(name: str, config: SuiteConfig) -> PropertyResult:
    """Run one property's cases: count the failures, keep the worst margin
    (a NaN sticks) and the first failures' inputs in JSON form."""
    check, n_cases = _CHECKS[name], config.case_count(name)
    failures, worst, wits = 0, -np.inf, []
    for i in range(n_cases):
        margin, inputs = check(_case_rng(config.seed, name, i), i)
        margin = np.max(margin)
        worst = np.maximum(worst, margin)
        if not margin <= 0:
            failures += 1
            if len(wits) < _MAX_WITNESSES:
                wits.append({"case": i, **{k: _payload(v) for k, v in inputs.items()}})
    return PropertyResult(name, n_cases, failures, float(worst), wits)


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Run every property and aggregate a deterministic machine-readable verdict."""
    config = config or SuiteConfig()
    results = [_run_property(name, config) for name in DEFAULT_CASES]
    fingerprint = {
        "package": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    return SuiteReport(
        properties=results,
        passed=all(r.failures == 0 for r in results),
        seed=config.seed,
        fingerprint=fingerprint,
    )
