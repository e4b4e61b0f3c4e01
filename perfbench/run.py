"""Benchmark of the hardyhilbert command line, end to end and layer by layer.

    python3 perfbench/run.py --workload carleson-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --list        # every metric with unit and what it moves

Run from the root of a source checkout.  One closed-loop client runs the
workload's CLI jobs one at a time, in this process, through
``hardyhilbert.cli.main(argv)``, with one BLAS thread.  Every job's exit code
and output are checked against an oracle (``jobs.py``).  The loop cycles
through the job list until ``--seconds`` have passed and at least one full
pass is done.  Between jobs it also times the workload's reference kernel
(``reference.py``) for a fixed share of the run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each job untraced and then traced (``spans.py``) over
whole passes and reports the per-layer metrics per pass, the tracing
overhead and the time no layer accounts for.

Before the result, a line ``{"detail": ...}`` records the environment,
sample counts and percentiles of every timing, per-job latencies, accuracy
and failures.  The last line is the result object.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1   # steadier than 2 on a shared 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric and exit")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def list_metrics() -> int:
    import metrics

    spec = load_spec()
    missing = []
    for section in ("end_to_end", "per_layer"):
        print(f"[{section}]")
        for m in spec[section]:
            what = metrics.describe(m["name"])
            missing += [m["name"]] if not what else []
            bound = f" bound {m['bound']}" if "bound" in m else ""
            print(f"{m['name']:48s} {m['unit']:6s} {m['better']}{bound}\n    {what}")
    print("[workloads]")
    for w in spec["workloads"]:
        print(f"{w['name']:16s} {w['why']}")
    for note in metrics.NOTES:
        print(f"note: {note}")
    if missing:
        print(f"metrics without a map entry: {missing}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Environment record.

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hardyhilbert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def summary(xs: list[float]) -> dict:
    """Sample count, median, and the highest percentile with >= 10 samples beyond it."""
    import numpy as np

    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    for p in PERCENTILES:
        if len(xs) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(xs, p))
            break
    return out


# ---------------------------------------------------------------------------
# Running jobs.

def _digest(stdout: str, files) -> str:
    h = hashlib.sha256(stdout.encode())
    for f in files:
        h.update(f.read_bytes() if f.is_file() else b"<missing>")
    return h.hexdigest()


class Runner:
    """Runs jobs through cli.main, times them and checks their output."""

    def __init__(self, cli):
        self.cli = cli
        self.verdicts: dict = {}     # (job, exit code, output digest) -> problems
        self.attempted = 0
        self.failures: list[dict] = []
        self.out_bytes = 0

    def run(self, job) -> float:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(job.argv))
            except Exception:
                rc, crash = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
        self.attempted += 1
        stdout = out.getvalue()
        self.out_bytes = len(stdout.encode()) + sum(
            f.stat().st_size for f in job.out_files if f.is_file())
        if rc is None:
            problems = [f"raised: {crash}"]
        else:
            key = (job.name, rc, _digest(stdout, job.out_files))
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = job.check(rc, stdout)
                except Exception:
                    self.verdicts[key] = [f"output unreadable: {traceback.format_exc(limit=2)}"]
            problems = self.verdicts[key]
        if problems:
            self.failures.append({"job": job.name, "problems": problems,
                                  "stderr": err.getvalue()[-500:]})
        return dt


def kind_time(xs: list[float]) -> float:
    """Mean latency of a job kind, leaving out its first call (a warm-up) if there are more.

    A mean, not a median: the host switches between a fast and a slow state,
    and a mean follows the share of time spent slow, as the reference
    kernel's mean does, so ``wall_ref`` cancels it; a median jumps from one
    state to the other when that share crosses one half.
    """
    return statistics.fmean(xs[1:] if len(xs) > 1 else xs)


def job_latencies(jobs, samples) -> dict:
    """Per-job latency metrics: sum over a metric's kinds of each kind's time."""
    kinds = defaultdict(set)
    for job in jobs:
        if job.metric:
            kinds[job.metric].add(job.kind)
    return {metric: sum(kind_time(samples[k]) for k in ks) for metric, ks in kinds.items()}


def pass_time(jobs, samples) -> float:
    return sum(kind_time(samples[job.kind]) for job in jobs)


def measure(wl, runner, seconds: float, ref, tracer=None):
    """Cycle through the jobs until ``seconds`` pass and a full pass is done.

    After each job, ``ref`` (a ``reference.Reference``) times its kernel
    until it has had its share of the time so far.

    With a tracer, only whole passes run, every job runs twice, untraced
    then traced, and a pass starts only if one more pass of the last pass's
    length still ends in time.  Returns (untraced samples, traced samples,
    passes, peak resident set in MB after the first pass).  The first pass
    runs in the same order in every process, so its peak does not depend
    on how later passes leave the heap.
    """
    plain, traced = defaultdict(list), defaultdict(list)
    jobs = wl.jobs
    start = time.perf_counter()
    deadline = start + seconds
    pass_start = start
    i = 0
    first_pass_rss_mb = None
    while True:
        job = jobs[i % len(jobs)]
        plain[job.kind].append(runner.run(job))
        if tracer is not None:
            tracer.install()
            try:
                traced[job.kind].append(runner.run(job))
            finally:
                tracer.uninstall()
            tracer.stats["cli.main"]["out_bytes"] += runner.out_bytes
        i += 1
        if i == len(jobs):
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref.keep_up(time.perf_counter() - start)
        now = time.perf_counter()
        if tracer is None:
            if now >= deadline and i >= len(jobs):
                return plain, traced, i / len(jobs), first_pass_rss_mb
        elif i % len(jobs) == 0:
            if now + (now - pass_start) > deadline:
                return plain, traced, i // len(jobs), first_pass_rss_mb
            pass_start = now


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the package and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    times = []
    for k in range(SETUP_REPEATS + 1):   # the first run warms the file cache, untimed
        target = Path(tempfile.mkdtemp(dir=WORK))
        try:
            t0 = time.perf_counter()
            # no timeout: with one, Popen.wait polls in steps of up to 50 ms
            subprocess.run(cmd + ["--setup-only", str(target)], check=True, cwd=ROOT,
                           stdout=subprocess.DEVNULL)
            if k:
                times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(target, ignore_errors=True)
    return times


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list:
        return list_metrics()
    if not (SRC / "hardyhilbert" / "cli.py").is_file():
        print(f"error: no hardyhilbert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs
    import reference

    if args.workload not in jobs.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    import hardyhilbert.cli

    if args.setup_only:
        jobs.build(args.workload, args.seed, Path(args.setup_only))
        return 0

    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup = time_setup(args.workload, args.seed) if args.trace == 0 else []
        wl = jobs.build(args.workload, args.seed, work)
        runner = Runner(hardyhilbert.cli)
        ref = reference.Reference(wl.name)
        tracer = None
        if args.trace:
            import metrics
            import spans
            tracer = spans.Tracer(hardyhilbert)
        plain, traced, passes, peak_rss_mb = measure(wl, runner, args.seconds, ref, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    latencies = job_latencies(wl.jobs, plain)
    wall_s = pass_time(wl.jobs, plain)
    ref_s = ref.mean()
    box_rel_err = wl.accuracy.get("box_rel_err", 0.0)
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "env": environment(args.seed),
        "seconds": args.seconds,
        "passes": passes,
        "jobs": [job.name for job in wl.jobs],
        "samples": {kind: summary(xs) for kind, xs in plain.items()},
        "job_latency_s": latencies,
        "wall_s": wall_s,
        "reference_mean_s": ref_s,
        "reference_samples": summary(ref.samples),
        "box_rel_err": box_rel_err,
        "fail_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:10],
    }
    if args.trace == 0:
        detail["setup_samples"] = summary(setup)
        values = {"setup_s": statistics.median(setup), "wall_ref": wall_s / ref_s,
                  "peak_rss_mb": peak_rss_mb}
        section = spec["end_to_end"]
    else:
        traced_wall = pass_time(wl.jobs, traced)
        per_pass = sum(sum(xs) for xs in traced.values()) / passes
        values = {"box_rel_err": box_rel_err, "wall_s": wall_s, "trace.wall_s": traced_wall,
                  "trace.overhead_s": traced_wall - wall_s,
                  "trace.unattributed_s": per_pass - tracer.self_total() / passes}
        values.update(latencies)
        for span, st in tracer.stats.items():
            for stat, v in st.items():
                values[f"{span}.{stat}"] = v / passes
        detail["traced_samples"] = {kind: summary(xs) for kind, xs in traced.items()}
        detail["layers"] = {span: {k: v / passes for k, v in st.items()}
                            for span, st in sorted(tracer.stats.items())}
        detail["notes"] = metrics.NOTES
        section = spec["per_layer"]
    metrics_out = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in section}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
