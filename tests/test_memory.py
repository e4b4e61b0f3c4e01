"""Peak memory of the long slow-decay and sequence passes, of the dense
Hankel oracle and of the largest CLI runs.

numpy reports its data buffers to tracemalloc, so a call's traced peak is
deterministic.  The bounds sit between the blockwise passes and the
full-array ones they replaced (the older peaks in each comment, MiB).  A
slow-decay trace is stored as its runs, so its passes keep nothing
per term and their peak does not grow with the length.  The CLI runs at
the caps are measured by their own peak resident set, in a fresh process.
"""

import math

import numpy as np
import pytest

from hardyhilbert import cli
from hardyhilbert.inequalities import DENSE_EIGEN, matrix_norm
from hardyhilbert.seqspace import N_CAP, XSequence, classic_sequence
from conftest import strict_json, traced_peak


def run_cli(capsys, argv):
    peak = []
    with traced_peak(peak):
        code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    return peak[0]


def test_xsequence_million_terms():
    values = np.ones(10**6)
    peak = []
    with traced_peak(peak):
        XSequence(values)
    assert peak[0] <= 24.0   # 53.4 with full-array prefix sums


def test_slowdecay_json_million_terms(capsys, tmp_path):
    argv = ["slowdecay", "--r", "0.75", "--beta", "2.0", "--n", "1000000",
            "--out", str(tmp_path / "report.json")]
    assert run_cli(capsys, argv) <= 8.0   # 77.5, then 42.8 with whole-array traces


def test_slowdecay_json_peak_independent_of_length(capsys, tmp_path):
    peaks = [run_cli(capsys, ["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", str(n),
                              "--out", str(tmp_path / "report.json")])
             for n in (10**6, 4 * 10**6)]
    assert abs(peaks[1] - peaks[0]) < 1.0


def test_slowdecay_csv_out(trace_csv_peak):
    assert trace_csv_peak[0] <= 8.0   # 65.3 with the text built whole, then 16.0


def test_xnorm_of_trace(capsys, tmp_path, trace_csv_peak):
    argv = ["xnorm", str(trace_csv_peak[1]), "--out", str(tmp_path / "xnorm.json")]
    assert run_cli(capsys, argv) <= 20.0   # 42.1


def test_dense_oracle_one_matrix():
    # H is a view of the weights and LAPACK's eigenvalue-only path keeps no
    # eigenvectors, so the shifted copy H - lam I (2 MiB at N = 512) is the
    # route's one N x N array: 2.02 traced, against 4.03 with the index
    # gather and the full eigenvector matrix
    c = classic_sequence(1023)
    peak = []
    with traced_peak(peak):
        matrix_norm(c, 512, DENSE_EIGEN)
    assert peak[0] <= 2.5


def test_classic_sequence_over_cap_allocates_nothing():
    peak = []
    with traced_peak(peak), pytest.raises(ValueError, match=f"exceeds cap {N_CAP}"):
        classic_sequence(N_CAP + 1)
    assert peak[0] < 1.0   # 763 MiB of terms were built before the check


def test_slowdecay_peak_rss_at_the_cap(cli_run):
    # a trace is stored as its runs and every pass works in blocks, so N_CAP
    # = 10^8 terms run in bounded memory: about 35 MB of resident set
    # against a fixed 64 MB bound (about 7 s on a 2-vCPU host)
    run = cli_run("slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "100000000")
    assert run.code == 0, run.err.decode()
    assert run.rss_mb <= 64.0


def test_equiv_at_two_to_the_twenty(cli_run):
    # the Lanczos solve converges (its quotient tolerance carries the
    # sqrt(N) rounding floor of a length-N sum), the witness is squared on
    # the Hankel operator's 2^21-point FFT length (the smallest power of
    # two >= 2N-1) with no quadrature, and the Krylov basis of 32 vectors
    # of 8 MB each stays under a fixed 512 MB peak resident set (about
    # 256 MB and 2 s on a 2-vCPU host).  The README lists the same command.
    run = cli_run("equiv", "--n", "1048576")
    assert run.code == 0, run.err.decode()
    report = strict_json(run.out)
    assert report["converged"] is True
    assert report["gap"] <= 1e-12
    assert report["matrix_norm"] < math.pi
    assert report["params"]["grid"] == 2097152
    assert run.rss_mb <= 512.0
