"""Peak traced memory of the long slow-decay and sequence passes, and of
the dense Hankel oracle.

numpy reports its data buffers to tracemalloc, so a call's traced peak is
deterministic.  The bounds sit between the blockwise passes and the
full-array ones they replaced (the older peaks in each comment, MiB).  A
slow-decay trace is stored as its runs, so its passes keep nothing
per term and their peak does not grow with the length.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from hardyhilbert import cli
from hardyhilbert.inequalities import DENSE_EIGEN, matrix_norm
from hardyhilbert.seqspace import XSequence, classic_sequence

MB = 2**20


@contextmanager
def traced_peak(out: list):
    tracemalloc.start()
    try:
        yield
        out.append(tracemalloc.get_traced_memory()[1] / MB)
    finally:
        tracemalloc.stop()


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


@pytest.fixture(scope="module")
def trace_csv_peak(tmp_path_factory):
    """The traced peak of writing a 3*10^5-row trace CSV, and the file."""
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    argv = ["slowdecay", "--r", "0.62", "--beta", "1.3", "--n", "300000",
            "--format", "csv", "--out", str(path)]
    peak = []
    with traced_peak(peak):
        code = cli.main(argv)
    assert code == 0
    return peak[0], path


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
