"""Workloads of the benchmark: seeded inputs, CLI job lists and their oracles.

Each workload turns a seed into input files and a list of ``Job``s.  A job
is one ``hardyhilbert`` command line run in-process through
``hardyhilbert.cli.main(argv)``.  Its ``check`` compares the exit code and the
output against an oracle that this module computes with its own numpy code,
never through the engine that produced the output.

Jobs share a ``kind`` when they cost alike (same sizes, different values), so
their latencies pool into one mean.  ``metric`` names the per-job latency
the job feeds (see ``metrics.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hardyhilbert import seqspace

WORKLOADS = ("carleson-sweep", "best-constants", "certify")

SWEEP_DEPTH = 12
SWEEP_CENTERS = 8
SWEEP_ARCS = 1 + SWEEP_DEPTH * SWEEP_CENTERS
C09_PAIRS = ((0.6, 1.5), (0.75, 2.0))
C10_PAIRS = ((0.6, 1.5), (0.75, 2.0), (0.9, 1.2))
SCAN_SIZES = [2**k for k in range(1, 14)]      # 2 .. 8192
DENSE_SIZES = [2**k for k in range(1, 10)]     # 2 .. 512
SLOW_N = 10**6
# The CSV export and its xnorm read are memory-bound and vary by a third from
# one call to the next on a shared host; at 3 * 10^5 rows each takes about a
# second, so a run holds enough of them for a steady mean.
CSV_N = 3 * 10**5
FAR_POLYS = 20
NEAR_POLYS = 10
# Seeded slow-decay parameters.  Below r = 0.62 the sup ratio of some
# sequences sits on a quarter-arc box, which the 256x256 quadrature resolves
# only to ~0.7%, so the sup oracle would fail on the known large-arc defect
# that box_rel_err already reports on every sweep.
SEEDED_R = (0.62, 1.0)
SEEDED_BETA = (1.1, 2.5)
# On best-constants, power iteration at N = 1024..8192 takes 180 to 218 steps
# over that beta range (fewer for larger beta), so the seed would move the
# scan's work by a fifth.  Over beta in [1.1, 1.4] it takes 204 to 218.
SCAN_BETA = (1.1, 1.4)
K_LIMIT = (1.0 - math.exp(-2.0)) ** -2
BOX_ERR_FLOOR = 1e-12


@dataclass
class Job:
    name: str
    kind: str
    metric: str | None
    argv: list[str]
    check: Callable[[int, str], list[str]]   # (exit code, stdout) -> problems
    out_files: list[Path] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    accuracy: dict = field(default_factory=dict)   # e.g. box_rel_err, filled by checks


# ---------------------------------------------------------------------------
# Input files, written by this module so that the program only reads them.

def write_sequence(path: Path, values) -> None:
    lines = ["index,value"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def write_polynomial(path: Path, coeffs) -> None:
    lines = ["index,re,im"] + [f"{i},{float(a.real)!r},{float(a.imag)!r}"
                               for i, a in enumerate(coeffs)]
    path.write_text("\n".join(lines) + "\n")


def read_polynomial(path: Path) -> np.ndarray:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    out = np.zeros(len(rows), dtype=complex)
    for i, re, im in rows:
        out[int(i)] = float(re) + 1j * float(im)
    return out


def slow_sequence(r: float, beta: float, n_values: int) -> np.ndarray:
    """The exported slow-decay sequence of ``n_values`` entries, as the CLI reads it."""
    trace = seqspace.slow_decay_sequence(r, beta, n_values - 1)
    return seqspace.trace_to_xsequence(trace).values


def _seeded_pair(seed: int, workload: str,
                 beta_range=SEEDED_BETA) -> tuple[np.random.Generator, float, float]:
    """The workload's generator and its seeded slow-decay (r, beta)."""
    rng = np.random.default_rng((seed & (2**64 - 1), WORKLOADS.index(workload)))
    return rng, float(rng.uniform(*SEEDED_R)), float(rng.uniform(*beta_range))


def _roots_polynomial(rng: np.random.Generator, near: bool) -> np.ndarray:
    """Coefficients (ascending) of a polynomial with controlled root distances.

    Every root keeps at least 0.05 from the unit circle, except that a
    ``near`` polynomial has one root 1e-3..5e-3 inside or outside it.
    """
    degree = int(rng.integers(2, 11))
    radii = np.where(rng.random(degree) < 0.5,
                     rng.uniform(0.1, 0.95, degree), rng.uniform(1.05, 2.0, degree))
    if near:
        radii[0] = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 5e-3)
    roots = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, degree))
    coeffs = np.poly(roots)[::-1] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return coeffs / np.linalg.norm(coeffs)


# ---------------------------------------------------------------------------
# Oracles.

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def closed_form_boxes(values: np.ndarray, arcs) -> np.ndarray:
    """Exact Carleson box integrals of g = sum values_n z^n over (center, length) arcs.

    I(arc) = sum_{j,k>=1} j k a_j a_k R(j+k) Theta(j-k) with
    R(n) = (1 - r0^n)/n - (1 - r0^(n+2))/(n+2), r0 = 1 - |I|, and
    Theta(m) = 2 e^{i m c} sin(m pi |I|)/m (Theta(0) = 2 pi |I|).  The
    double sum is folded into diagonal sums over |j - k| once per length, so
    each center costs O(N).
    """
    a = np.asarray(values, dtype=float)
    n = a.size - 1
    b = np.arange(1, n + 1) * a[1:]
    jk = np.add.outer(np.arange(1, n + 1), np.arange(1, n + 1))
    diff = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).ravel()
    bb = np.outer(b, b)
    m = np.arange(1, n)
    out = np.empty(len(arcs))
    diag_cache: dict[float, np.ndarray] = {}
    for idx, (center, length) in enumerate(arcs):
        D = diag_cache.get(length)
        if D is None:
            s = np.arange(2, 2 * n + 3, dtype=float)
            if length >= 1.0:
                one_minus = np.ones_like(s)
            else:
                one_minus = -np.expm1(s * math.log1p(-length))
            R = one_minus[:-2] / s[:-2] - one_minus[2:] / s[2:]   # R(s), s = 2..2n
            D = np.bincount(diff, weights=(bb * R[jk - 2]).ravel(), minlength=n)
            diag_cache[length] = D
        theta = 2.0 * np.cos(m * center) * np.sin(m * math.pi * length) / m
        out[idx] = D[0] * 2.0 * math.pi * length + float(D[1:] @ theta)
    return out


def _carleson_check(values: np.ndarray, accuracy: dict):
    def check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        rep = json.loads(stdout)
        problems = []
        if rep.get("bounded") is not True:
            problems.append("sweep not bounded")
        arcs = rep["arcs"]
        if len(arcs) != SWEEP_ARCS:
            problems.append(f"{len(arcs)} arcs, expected {SWEEP_ARCS}")
        exact = closed_form_boxes(values, [(x["center"], x["length"]) for x in arcs])
        reported = np.array([x["box_integral"] for x in arcs])
        err = float(np.max(np.abs(reported - exact) / np.abs(exact)))
        accuracy["box_rel_err"] = max(accuracy.get("box_rel_err", BOX_ERR_FLOOR), err)
        sup = float(np.max(exact / np.array([x["length"] for x in arcs])))
        if _rel(rep["sup_ratio"], sup) > 1e-9:
            problems.append(f"sup_ratio {rep['sup_ratio']!r} vs closed form {sup!r}")
        return problems
    return check


def _kconst_check(rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    value = json.loads(stdout)["value"]
    return [] if abs(value - K_LIMIT) <= 1e-3 else [f"K {value!r} vs limit {K_LIMIT!r}"]


def _hankel_top(values: np.ndarray, N: int) -> float:
    idx = np.arange(N)
    return float(np.linalg.eigvalsh(values[np.add.outer(idx, idx)])[-1])


def _scan_check(values: np.ndarray, sizes, classic: bool):
    dense = {N: _hankel_top(values, N) for N in sizes if N <= DENSE_SIZES[-1]}
    c0, c1, c2 = values[:3]
    two = 0.5 * (c0 + c2) + math.hypot(0.5 * (c0 - c2), c1)

    def check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        rows = json.loads(stdout)["rows"]
        problems = []
        if [r["N"] for r in rows] != list(sizes):
            return ["scan sizes differ from the request"]
        norms = [r["norm"] for r in rows]
        if not all(r["converged"] for r in rows):
            problems.append("unconverged row")
        if any(b <= a for a, b in zip(norms, norms[1:])):
            problems.append("scan not strictly increasing")
        if classic and max(norms) >= math.pi:
            problems.append("classic scan reached pi")
        if _rel(norms[0], two) > 1e-12:
            problems.append(f"N=2 norm {norms[0]!r} vs closed form {two!r}")
        for r in rows:
            if r["N"] in dense and _rel(r["norm"], dense[r["N"]]) > 1e-10:
                problems.append(f"N={r['N']} norm {r['norm']!r} vs eigvalsh {dense[r['N']]!r}")
        return problems
    return check


def _equiv_check(rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    rep = json.loads(stdout)
    problems = [] if rep["converged"] else ["unconverged"]
    if not rep["gap"] <= 1e-6:
        problems.append(f"gap {rep['gap']!r} > 1e-6")
    return problems


def _slowdecay_json_check(rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    rep = json.loads(stdout)
    problems = [] if rep["certificate"]["ok"] else ["certificate not ok"]
    if not rep["infinitude"]["largest_power_index"] > 10**5:
        problems.append("no power pick past 10^5")
    return problems


def _trace_csv_oracle(path: Path, r: float, beta: float) -> tuple[list[str], float]:
    """Check a slow-decay CSV export independently; return problems and its norm."""
    idx = np.empty(CSV_N + 1, dtype=np.int64)
    val = np.empty(CSV_N + 1)
    power = np.zeros(CSV_N + 1, dtype=bool)
    with open(path) as fh:
        if fh.readline().strip() != "index,value,choice":
            return ["trace CSV header"], math.nan
        count = 0
        for line in fh:
            i, v, ch = line.rstrip("\n").split(",")
            if count > CSV_N:
                return ["trace CSV has extra rows"], math.nan
            idx[count], val[count], power[count] = int(i), float(v), ch == "power"
            count += 1
    if count != CSV_N + 1 or not np.array_equal(idx, np.arange(CSV_N + 1)):
        return ["trace CSV indices"], math.nan
    n = np.arange(1, CSV_N + 1, dtype=float)
    c, flags = val[1:], power[1:]
    problems = []
    expect = np.where(flags, n ** -r, 1.0 / n)
    if not np.allclose(c, expect, rtol=1e-15, atol=0.0) or val[0] != c[0]:
        problems.append("trace values disagree with their choice flags")
    margins = beta * n - np.cumsum(((n * c) ** 2).astype(np.longdouble))
    if np.any(margins < -1e-13 * beta * n):
        problems.append("budget margin negative")
    if not flags[10**5:].any():
        problems.append("no power pick past 10^5")
    k1 = np.arange(1, CSV_N + 2, dtype=float)
    norm = math.sqrt(float(np.max(np.cumsum(((k1 * val) ** 2).astype(np.longdouble)) / k1)))
    return problems, norm


def _suite_check():
    first: list[str] = []

    def check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if not first:
            first.append(stdout)
        problems = [] if json.loads(stdout)["pass"] is True else ["suite failed"]
        if stdout != first[0]:
            problems.append("suite report differs between passes")
        return problems
    return check


def _factorize_check(coeffs: np.ndarray, g_path: Path, h_path: Path):
    def check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        product = np.convolve(read_polynomial(g_path), read_polynomial(h_path))
        padded = np.zeros(max(product.size, coeffs.size), dtype=complex)
        padded[: coeffs.size] = coeffs
        padded[: product.size] -= product
        err = float(np.abs(padded).max())
        limit = 1e-8 * float(np.linalg.norm(coeffs))
        return [] if err <= limit else [f"g*h misses f by {err:.3e} > {limit:.3e}"]
    return check


def _hardy_check(rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    verdict = json.loads(stdout)["degree_bound"]["verdict"]
    return [] if verdict == "holds" else [f"verdict {verdict}"]


# ---------------------------------------------------------------------------
# Workloads.

def carleson_sweep(seed: int, work: Path) -> Workload:
    _, r, beta = _seeded_pair(seed, "carleson-sweep")
    wl = Workload("carleson-sweep", [])
    sweep = ["carleson", "--depth", str(SWEEP_DEPTH), "--centers", str(SWEEP_CENTERS)]
    classic = 1.0 / np.arange(1, 1025)
    wl.jobs.append(Job("carleson classic-1024", "carleson", "carleson_s",
                       sweep + ["--classic-n", "1024"], _carleson_check(classic, wl.accuracy)))
    for pr, pb in list(C09_PAIRS) + [(r, beta)]:
        values = slow_sequence(pr, pb, 1024)
        path = work / f"slow_{pr!r}_{pb!r}.csv"
        write_sequence(path, values)
        wl.jobs.append(Job(f"carleson slow({pr:.6g},{pb:.6g})", "carleson", "carleson_s",
                           sweep + ["--sequence", str(path)],
                           _carleson_check(values, wl.accuracy)))
    wl.jobs.append(Job("kconst 0.999999", "kconst", "kconst_s",
                       ["kconst", "--rmax", "0.999999"], _kconst_check))
    return wl


def best_constants(seed: int, work: Path) -> Workload:
    _, r, beta = _seeded_pair(seed, "best-constants", SCAN_BETA)
    n_values = 2 * SCAN_SIZES[-1] - 1
    seeded = slow_sequence(r, beta, n_values)
    path = work / "slow_scan.csv"
    write_sequence(path, seeded)
    classic = 1.0 / np.arange(1, n_values + 1)
    scan = ["hilbert-norm", "--n-list", ",".join(map(str, SCAN_SIZES))]
    return Workload("best-constants", [
        Job("hilbert-norm classic 2..8192", "scan-classic", "scan_s", scan,
            _scan_check(classic, SCAN_SIZES, classic=True)),
        Job(f"hilbert-norm slow({r:.6g},{beta:.6g}) 2..8192", "scan-seeded", None,
            scan + ["--sequence", str(path)], _scan_check(seeded, SCAN_SIZES, classic=False)),
        Job("equiv 4096", "equiv-4096", "equiv_s", ["equiv", "--n", "4096"], _equiv_check),
        Job("equiv 256 grid 65536", "equiv-256", None,
            ["equiv", "--n", "256", "--grid", "65536"], _equiv_check),
        Job("hilbert-norm dense 2..512", "scan-dense", None,
            ["hilbert-norm", "--method", "dense_eigen", "--n-list", ",".join(map(str, DENSE_SIZES))],
            _scan_check(classic, DENSE_SIZES, classic=True)),
    ])


def certify(seed: int, work: Path) -> Workload:
    rng, r, beta = _seeded_pair(seed, "certify")
    jobs = [Job(f"slowdecay ({pr},{pb})", "slowdecay", "slowdecay_s",
                ["slowdecay", "--r", str(pr), "--beta", str(pb), "--n", str(SLOW_N)],
                _slowdecay_json_check) for pr, pb in C10_PAIRS]

    trace_path = work / "trace.csv"
    expected_norm: list[float] = []

    def csv_write_check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems, norm = _trace_csv_oracle(trace_path, r, beta)
        expected_norm[:] = [norm]
        return problems

    def csv_read_check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        norm = json.loads(stdout)["norm"]
        if not expected_norm or _rel(norm, expected_norm[0]) > 1e-12:
            return [f"xnorm {norm!r} vs prefix-ratio max {expected_norm}"]
        return []

    jobs.append(Job(f"slowdecay csv ({r:.6g},{beta:.6g})", "csv-write", "csv_write_s",
                    ["slowdecay", "--r", repr(r), "--beta", repr(beta), "--n", str(CSV_N),
                     "--format", "csv", "--out", str(trace_path)],
                    csv_write_check, [trace_path]))
    jobs.append(Job("xnorm trace.csv", "csv-read", "csv_read_s",
                    ["xnorm", str(trace_path)], csv_read_check))
    jobs.append(Job(f"suite --seed {seed}", "suite", "suite_s",
                    ["suite", "--seed", str(seed)], _suite_check()))

    polys = []
    for i in range(FAR_POLYS + NEAR_POLYS):
        coeffs = _roots_polynomial(rng, near=i >= FAR_POLYS)
        path = work / f"poly_{i:02d}.csv"
        write_polynomial(path, coeffs)
        polys.append((path, coeffs))
    for i, (path, coeffs) in enumerate(polys[:FAR_POLYS]):
        g, h = work / f"g_{i:02d}.csv", work / f"h_{i:02d}.csv"
        jobs.append(Job(f"factorize poly_{i:02d}", f"factorize-{i:02d}", "factorize_batch_s",
                        ["factorize", str(path), "--out-g", str(g), "--out-h", str(h)],
                        _factorize_check(coeffs, g, h), [g, h]))
    for i, (path, _) in enumerate(polys):
        jobs.append(Job(f"hardy-check poly_{i:02d}", f"hardy-check-{i:02d}", "hardy_check_batch_s",
                        ["hardy-check", str(path)], _hardy_check))
    return Workload("certify", jobs)


BUILDERS = {"carleson-sweep": carleson_sweep, "best-constants": best_constants,
            "certify": certify}


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the seeded inputs of workload ``name`` under ``work`` and list its jobs."""
    return BUILDERS[name](seed, work)
