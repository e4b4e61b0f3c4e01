import argparse
import gzip
import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hardyhilbert import _floattext, bmoa, cli, hardyspace, harness, inequalities, seqspace
from hardyhilbert.bmoa import carleson_constant, sweep_is_bounded
from hardyhilbert.hardyspace import AnalyticPoly, hp_norm, write_polynomial_csv
from hardyhilbert.inequalities import best_constant_scan
from hardyhilbert.seqspace import (
    XSequence,
    classic_sequence,
    read_sequence_csv,
    slow_decay_sequence,
    trace_csv,
    trace_to_xsequence,
    write_sequence_csv,
    xnorm,
)
from conftest import csv_table, fresh_python, strict_json
from test_seqspace import exact_export_norm, exact_margins, loop_slow_decay


@pytest.fixture
def classic_file(tmp_path):
    path = tmp_path / "classic.csv"
    write_sequence_csv(path, classic_sequence(100))
    return str(path)


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "poly.csv"
    write_polynomial_csv(path, AnalyticPoly([1.0, 1.0, 0.25]))
    return str(path)


def rows_text(header, rows):
    """CSV text the way the CLI first wrote it: str() of each cell, comma-joined."""
    return "".join(",".join(str(x) for x in row) + "\n" for row in [header] + rows)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestXnorm:
    def test_classic_norm_field(self, capsys, classic_file):
        code, out, _ = run(capsys, ["xnorm", classic_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["norm"] == 1.0
        assert len(payload["prefix_ratios"]) == 100

    def test_csv_format(self, capsys, classic_file):
        code, out, err = run(capsys, ["xnorm", classic_file, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,ratio"
        assert len(lines) == 101
        assert "xnorm" in err  # diagnostics stay on stderr

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["xnorm", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("n", [1, 2, 10**5])
    def test_json_matches_indented_dumps(self, capsys, tmp_path, n):
        # the ratios are spliced into the JSON; json.dumps is the byte oracle
        rng = np.random.default_rng(n)
        path = tmp_path / "seq.csv"
        values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 4, n)
        write_sequence_csv(path, XSequence(values))
        c = read_sequence_csv(path)
        payload = {"n": n, "norm": xnorm(c), "norm_sq": c.xnorm_sq,
                   "prefix_ratios": c.ratios.tolist(), "params": {"input": str(path)}}
        code, out, _ = run(capsys, ["xnorm", str(path)])
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_csv_bytes(self, capsys, tmp_path):
        path, target = tmp_path / "seq.csv", tmp_path / "ratios.csv"
        write_sequence_csv(path, XSequence(0.3 / np.arange(1.0, 51.0)))
        ratios = read_sequence_csv(path).ratios
        golden = rows_text(["index", "ratio"], [[i, repr(float(v))] for i, v in enumerate(ratios)])
        code, out, _ = run(capsys, ["xnorm", str(path), "--format", "csv"])
        assert code == 0 and out == golden
        code, out, _ = run(capsys, ["xnorm", str(path), "--format", "csv", "--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_bytes() == golden.encode()  # LF, as on stdout

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_under_a_compressed_suffix(self, capsys, tmp_path, suffix):
        # numpy would decompress a file so named: it is read as the text it holds
        text = "".join(trace_csv(slow_decay_sequence(0.6, 1.5, 3000)))
        plain, named = tmp_path / "seq.csv", tmp_path / f"seq{suffix}"
        for path in (plain, named):
            path.write_text(text, newline="")
        for fmt in ("json", "csv"):
            want = run(capsys, ["xnorm", str(plain), "--format", fmt])
            code, out, err = run(capsys, ["xnorm", str(named), "--format", fmt])
            assert want[0] == 0
            assert (code, out.replace(str(named), str(plain)), err) == want


BAD_SEQUENCE_ROWS = {
    "nan": "0,1.0\n1,nan\n2,0.25\n",
    "negative": "0,1.0\n1,0.5\n-1,0.25\n",
    "out_of_range": "0,1.0\n1,0.5\n3,0.25\n",
    "duplicate": "0,1.0\n1,0.5\n1,0.25\n",
}


def run_piped(text: bytes, argv):
    """The CLI in a fresh process, reading ``text`` from a pipe as /dev/stdin.

    A pipe cannot be reopened by name: its text would be read twice or hang.
    """
    proc = fresh_python("-m", "hardyhilbert.cli", argv[0], "/dev/stdin", *argv[1:],
                        input=text, timeout=60)
    return proc.code, proc.out.decode(), proc.err.decode()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
class TestPipeInput:
    """A sequence read through a pipe: the same output, and the same rejections."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_matches_the_file(self, capsys, tmp_path, fmt):
        path = tmp_path / "seq.csv"
        path.write_text("".join(trace_csv(slow_decay_sequence(0.6, 1.5, 3000))), newline="")
        code, out, err = run_piped(path.read_bytes(), ["xnorm", "--format", fmt])
        want = run(capsys, ["xnorm", str(path), "--format", fmt])
        if fmt == "json":   # params.input echoes the name read
            assert code == 0 and want[0] == 0
            out, want = json.loads(out), json.loads(want[1])
            assert out.pop("params") == {"input": "/dev/stdin"}
            assert out == {key: value for key, value in want.items() if key != "params"}
        else:
            assert (code, out, err) == want

    def test_bad_rows_rejected_alike(self, capsys, tmp_path):
        for kind, body in sorted(BAD_SEQUENCE_ROWS.items()):
            path = tmp_path / f"{kind}.csv"
            path.write_text("index,value\n" + body)
            piped = run_piped(path.read_bytes(), ["xnorm"])
            assert piped == run(capsys, ["xnorm", str(path)]), kind
            assert piped[0] == 2


class TestBadInput:
    @pytest.mark.parametrize("kind", sorted(BAD_SEQUENCE_ROWS))
    def test_bad_sequence_csv_is_usage_error(self, capsys, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_text("index,value\n" + BAD_SEQUENCE_ROWS[kind])
        for argv in (["xnorm", str(path)],
                     ["hilbert-norm", "--n-list", "2", "--sequence", str(path)]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_gzip_input_is_named(self, capsys, tmp_path):
        path = tmp_path / "s.csv.gz"
        path.write_bytes(gzip.compress("".join(trace_csv(slow_decay_sequence(0.6, 1.5, 100)))
                                       .encode()))
        for argv in (["xnorm", str(path)],
                     ["hilbert-norm", "--n-list", "2", "--sequence", str(path)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err == (f"error: sequence CSV {path} is not UTF-8 text (invalid start "
                           f"byte): input must be plain UTF-8 text, and compressed files "
                           f"are not decompressed\n")

    @pytest.mark.parametrize("body", ["0,1,0\n-1,2,0\n", "0,1,0\n2,2,0\n",
                                      "0,1,0\n0,2,0\n", "0,1,0\n1,nan,0\n"])
    def test_bad_polynomial_csv_is_usage_error(self, capsys, tmp_path, body):
        path = tmp_path / "poly.csv"
        path.write_text("index,re,im\n" + body)
        code, out, err = run(capsys, ["factorize", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: polynomial CSV")

    @pytest.mark.parametrize("centers", ["0", "-2"])
    def test_carleson_centers_below_one(self, capsys, centers):
        code, out, err = run(capsys, ["carleson", "--depth", "2", "--centers", centers,
                                      "--classic-n", "16"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: centers per length")

    @pytest.mark.parametrize("command", ["carleson", "hilbert-norm", "equiv", "hardy-check"])
    def test_classic_n_zero_is_usage_error(self, capsys, poly_file, command):
        # 0 must reach classic_sequence, not fall back to the default length
        extra = {"carleson": ["--depth", "2"], "hilbert-norm": ["--n-list", "2,4"],
                 "equiv": ["--n", "2"], "hardy-check": [poly_file]}[command]
        code, out, err = run(capsys, [command] + extra + ["--classic-n", "0"])
        assert code == 2
        assert out == ""
        assert err == "error: N must be positive\n"

    def test_carleson_sequence_over_cap_is_usage_error(self, capsys):
        cap = bmoa.CARLESON_N_CAP
        start = time.perf_counter()
        code, out, err = run(capsys, ["carleson", "--depth", "12", "--classic-n", str(cap + 1)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (f"error: sequence length {cap + 1} exceeds the Carleson sweep cap "
                       f"CARLESON_N_CAP = {cap}\n")

    @pytest.mark.parametrize("argv, length", [
        (["hilbert-norm", "--n-list", "1000000000000000"], 2 * 10**15 - 1),
        (["equiv", "--n", "1000000000000000"], 2 * 10**15 - 1),
        (["carleson", "--classic-n", "1000000000000000"], 10**15)])
    def test_classic_length_over_cap_is_usage_error(self, capsys, argv, length):
        # refused before its terms are built, not by numpy's allocator
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: sequence length {length} exceeds cap {seqspace.N_CAP}\n"


class TestSlowdecay:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, ["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "2000"])
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["ok"]
        assert payload["infinitude"]["power_count"] >= 1
        assert payload["params"]["s"] == pytest.approx(0.7)

    def test_csv_trace(self, capsys):
        code, out, _ = run(capsys, ["slowdecay", "--r", "0.5", "--beta", "2.0",
                                    "--n", "5", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,value,choice"
        assert len(lines) == 7  # header + head row + 5 entries
        assert lines[1].split(",")[2] == "power"

    def test_csv_bytes_match_loop_oracle(self, capsys, tmp_path):
        r, beta, n = 0.9, 1.2, 5000
        want = loop_slow_decay(r, beta, n)
        labels = ["power" if f else "harmonic" for f in want.choice]
        rows = [[0, repr(float(want.values[0])), labels[0]]]
        rows += [[i + 1, repr(float(want.values[i])), labels[i]] for i in range(n)]
        golden = rows_text(["index", "value", "choice"], rows).encode()
        out_path = tmp_path / "cli.csv"
        code, out, _ = run(capsys, ["slowdecay", "--r", str(r), "--beta", str(beta),
                                    "--n", str(n), "--format", "csv", "--out", str(out_path)])
        assert code == 0 and out == ""
        assert out_path.read_bytes() == golden
        assert "".join(trace_csv(slow_decay_sequence(r, beta, n))).encode() == golden

    def test_json_matches_loop_oracle(self, capsys):
        r, beta, n = 0.75, 2.0, 20000
        want = loop_slow_decay(r, beta, n)
        code, out, _ = run(capsys, ["slowdecay", "--r", str(r), "--beta", str(beta),
                                    "--n", str(n)])
        assert code == 0
        payload = json.loads(out)
        assert payload["export_norm"] == exact_export_norm(want.values)
        ok, min_margin, argmin_index = exact_margins(want.values, beta)
        assert payload["certificate"] == {"ok": ok, "min_margin": min_margin,
                                          "argmin_index": argmin_index}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("beta, n, message", [
        ("inf", "1000", "error: beta must be finite, got inf\n"),
        ("nan", "1000", "error: beta must be finite, got nan\n"),
        ("1e308", "1000", "error: the budget beta*N overflows: beta = 1e+308, N = 1000\n"),
        ("1e301", "100000000", "error: the budget beta*N overflows: beta = 1e+301, "
                               "N = 100000000\n"),
    ])
    def test_bad_beta_is_usage_error_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                     fmt, beta, n, message):
        monkeypatch.setattr(seqspace, "_skip_harmonic", None)   # no per-term work may start
        monkeypatch.setattr(seqspace, "_skip_power", None)
        target = tmp_path / "out.txt"
        argv = ["slowdecay", "--r", "0.6", "--beta", beta, "--n", n, "--format", fmt]
        assert run(capsys, argv) == (2, "", message)
        assert run(capsys, argv + ["--out", str(target)]) == (2, "", message)
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("r", ["nan", "inf", "0.4"])
    def test_bad_r_is_usage_error_before_the_growth_check(self, capsys, monkeypatch, fmt, r):
        # the default s = r + 0.1 is derived from r, so r is checked first
        monkeypatch.setattr(seqspace, "check_growth_exponent", None)
        monkeypatch.setattr(seqspace, "slow_decay_sequence", None)
        argv = ["slowdecay", "--r", r, "--beta", "1.5", "--n", "1000", "--format", fmt]
        assert run(capsys, argv) == (2, "", f"error: r must lie in [1/2, 1], got {float(r)}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("s, message", [
        ("nan", "error: s must be finite, got s = nan\n"),
        ("inf", "error: s must be finite, got s = inf\n"),
        ("1e6", "error: n**s overflows for s = 1000000.0 at n = 1000\n"),
        ("0.6", "error: s must exceed r = 0.6, got s = 0.6\n"),
    ])
    def test_bad_s_is_usage_error_before_any_work(self, capsys, monkeypatch, fmt, s, message):
        monkeypatch.setattr(seqspace, "slow_decay_sequence", None)
        argv = ["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "1000", "--s", s,
                "--format", fmt]
        assert run(capsys, argv) == (2, "", message)

    def test_csv_skips_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(seqspace, "slow_decay_report", None)
        code, out, _ = run(capsys, ["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "100",
                                    "--format", "csv"])
        assert code == 0 and out.startswith("index,value,choice\n")


class TestSmallBlocks:
    """Streamed trace and ratio output in blocks of 5 rows and text chunks of
    3, against whole-text oracles built from per-element repr."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(seqspace, "_BLOCK", 5)
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 3)

    @staticmethod
    def trace_golden(r, beta, n):
        want = loop_slow_decay(r, beta, n)
        labels = ["power" if f else "harmonic" for f in want.choice]
        rows = [[0, repr(float(want.values[0])), labels[0]]]
        rows += [[i + 1, repr(float(want.values[i])), labels[i]] for i in range(n)]
        return rows_text(["index", "value", "choice"], rows)

    def test_trace_csv_stdout_and_out_file(self, capsys, tmp_path):
        r, beta, n = 0.6, 1.5, 22
        golden = self.trace_golden(r, beta, n)
        argv = ["slowdecay", "--r", str(r), "--beta", str(beta), "--n", str(n), "--format", "csv"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == golden
        target = tmp_path / "trace.csv"
        code, out, _ = run(capsys, argv + ["--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_bytes() == golden.encode()

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_trace_csv_at_chunk_edges(self, capsys, n):
        code, out, _ = run(capsys, ["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", str(n),
                                    "--format", "csv"])
        assert code == 0 and out == self.trace_golden(0.6, 1.5, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 22])
    def test_xnorm_json_and_csv(self, capsys, tmp_path, n):
        self.check_xnorm(capsys, tmp_path, 0.3 / np.arange(1.0, n + 1.0))

    @pytest.mark.parametrize("n", [3, 7, 40])
    def test_xnorm_of_mixed_magnitudes(self, capsys, tmp_path, n):
        """Ratios across fixed and scientific layouts, with short and
        17-digit texts, a power of two and a value repr writes in full."""
        k = np.arange(n)
        values = 0.3 / (k + 1.0) * 10.0 ** (k % 9 - 4)
        values[1::5] = 2.0 ** -(k[1::5] + 3.0) / (k[1::5] + 1.0)
        values[-1] = 5e-324
        self.check_xnorm(capsys, tmp_path, values)

    @staticmethod
    def check_xnorm(capsys, tmp_path, values):
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, XSequence(values))
        assert path.read_text() == rows_text(["index", "value"],
                                             [[i, repr(v)] for i, v in enumerate(values.tolist())])
        c = read_sequence_csv(path)
        payload = {"n": len(c), "norm": xnorm(c), "norm_sq": c.xnorm_sq,
                   "prefix_ratios": c.ratios.tolist(), "params": {"input": str(path)}}
        code, out, _ = run(capsys, ["xnorm", str(path)])
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        golden = rows_text(["index", "ratio"], [[i, repr(float(v))] for i, v in enumerate(c.ratios)])
        code, out, _ = run(capsys, ["xnorm", str(path), "--format", "csv"])
        assert code == 0 and out == golden

    def test_polynomial_csv(self, tmp_path):
        """re and im columns, signed zeros included, in chunks of 3 rows."""
        coeffs = [complex(-0.0, 0.0), complex(1.5, -0.0), complex(0.0, -2.5e-300),
                  complex(1e16, 0.1), complex(-1e-5, 9999999999999998.0), complex(0.0, 1.0),
                  complex(2.0**-20, -1.0 / 3.0)]
        path = tmp_path / "poly.csv"
        write_polynomial_csv(path, AnalyticPoly(coeffs))
        rows = [[i, repr(a.real), repr(a.imag)] for i, a in enumerate(coeffs)]
        assert path.read_text() == rows_text(["index", "re", "im"], rows)
        assert "0,-0.0,0.0\n1,1.5,-0.0\n" in path.read_text()


class TestHilbertNorm:
    def test_single_size_row(self, capsys):
        code, out, _ = run(capsys, ["hilbert-norm", "--n-list", "1", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,norm,residual,iterations,converged"
        assert lines[1].startswith("1,1.0,")

    def test_csv_bytes(self, capsys):
        sizes = [1, 2, 4, 8]
        rows = [[e.N, repr(e.value), repr(e.residual), e.iterations, e.converged]
                for e in best_constant_scan(classic_sequence(15), sizes)]
        header = ["N", "norm", "residual", "iterations", "converged"]
        code, out, _ = run(capsys, ["hilbert-norm", "--n-list", "1,2,4,8", "--format", "csv"])
        assert code == 0
        assert out == rows_text(header, rows)

    def test_json_rows_monotone(self, capsys):
        code, out, _ = run(capsys, ["hilbert-norm", "--n-list", "2,4,8"])
        assert code == 0
        rows = json.loads(out)["rows"]
        values = [r["norm"] for r in rows]
        assert values == sorted(values)
        assert all(r["converged"] for r in rows)

    def test_method_echo_is_lanczos(self, capsys):
        code, out, _ = run(capsys, ["hilbert-norm", "--n-list", "2,300"])  # both routes
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["method"] == "lanczos"
        assert all(r["converged"] for r in payload["rows"])

    @pytest.mark.parametrize("method", [inequalities.LANCZOS, inequalities.DENSE_EIGEN])
    def test_method_choices_are_the_engines(self, capsys, method):
        # the parser spells the names out; each must still select its route
        code, out, _ = run(capsys, ["hilbert-norm", "--n-list", "2,4", "--method", method])
        assert code == 0
        assert json.loads(out)["params"]["method"] == method

    def test_power_iteration_method_removed(self, capsys):
        code, out, err = run(capsys, ["hilbert-norm", "--n-list", "2", "--method", "power_iteration"])
        assert code == 2
        assert out == ""
        assert "invalid choice" in err


class TestEquiv:
    def test_two_by_two_gap(self, capsys):
        code, out, _ = run(capsys, ["equiv", "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] <= 1e-8
        assert payload["matrix_norm"] == pytest.approx((4 + np.sqrt(13)) / 6, abs=1e-9)
        assert payload["hardy_ratio"] == pytest.approx((4 + np.sqrt(13)) / 6, abs=1e-7)

    def test_idempotent_output(self, capsys):
        code1, out1, _ = run(capsys, ["equiv", "--n", "4"])
        code2, out2, _ = run(capsys, ["equiv", "--n", "4"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_method_echo_is_lanczos(self, capsys):
        # the echo is the route the estimate took; there is no --method to pick it
        code, out, _ = run(capsys, ["equiv", "--n", "4"])
        assert code == 0
        assert json.loads(out)["params"]["method"] == "lanczos"
        code, out, err = run(capsys, ["equiv", "--n", "4", "--method", "lanczos"])
        assert code == 2
        assert out == ""
        assert "--method" in err

    @pytest.mark.parametrize("argv, grid", [
        (["--n", "4"], 8),                          # the smallest power of two >= 2N-1 = 7
        (["--n", "1100"], 4096),                    # 2N-1 = 2199, the Hankel operator's length
        (["--n", "4", "--grid", "5000"], 8192),     # a given grid rounds up to a power of two
    ])
    def test_grid_echo_is_the_grid_g_was_squared_on(self, capsys, monkeypatch, argv, grid):
        # the witness's inverse transform is the last one equiv runs; the
        # Lanczos products before it (fft route at N = 1100) run on 4096 points
        seen = []
        real = np.fft.irfft

        def recording_irfft(a, n=None, *args, **kwargs):
            seen.append(n)
            return real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        code, out, _ = run(capsys, ["equiv"] + argv)
        assert code == 0
        assert json.loads(out)["params"]["grid"] == grid
        assert seen[-1] == grid
        assert set(seen[:-1]) <= {4096}

    def test_given_grid_must_hold_the_square(self, capsys):
        # g^2 has 2N-1 = 7 coefficients: 7 points round up to 8, 6 are refused
        code, out, _ = run(capsys, ["equiv", "--n", "4", "--grid", "7"])
        assert code == 0
        assert json.loads(out)["params"]["grid"] == 8
        code, out, err = run(capsys, ["equiv", "--n", "4", "--grid", "6"])
        assert code == 2
        assert out == ""
        assert "need M >= 7" in err


class TestCarleson:
    def test_small_sweep(self, capsys):
        code, out, err = run(capsys, ["carleson", "--depth", "4", "--centers", "2",
                                      "--classic-n", "32"])
        assert code == 0
        payload = json.loads(out)
        assert payload["bounded"]
        assert payload["sup_ratio"] > 0
        assert "exceeds" in err  # classic finding logged to stderr

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["carleson", "--depth", "2", "--centers", "2",
                                    "--classic-n", "16", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "length,center,box_integral,ratio"

    def test_csv_bytes_match_report_rows(self, capsys, tmp_path):
        out_path = tmp_path / "cli.csv"
        code, _, _ = run(capsys, ["carleson", "--depth", "3", "--centers", "2",
                                  "--classic-n", "16", "--format", "csv", "--out", str(out_path)])
        assert code == 0
        report = carleson_constant(classic_sequence(16), depth=3, centers_per_length=2)
        columns = (report.lengths, report.centers, report.box_integrals, report.ratios)
        rows = [[repr(x) for x in row] for row in zip(*(col.tolist() for col in columns))]
        golden = rows_text(["length", "center", "box_integral", "ratio"], rows)
        assert len(rows) == 1 + 3 * 2
        assert out_path.read_bytes() == golden.encode()  # LF line ends

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_csv_across_chunk_edges(self, capsys, monkeypatch, chunk):
        argv = ["carleson", "--depth", "3", "--centers", "2", "--classic-n", "16",
                "--format", "csv"]
        _, whole, _ = run(capsys, argv)
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", chunk)
        assert run(capsys, argv)[1] == whole

    def test_csv_verdict_on_stderr(self, capsys):
        argv = ["carleson", "--depth", "3", "--classic-n", "64"]
        _, out, err = run(capsys, argv)
        payload = json.loads(out)
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "length,center,box_integral,ratio"
        assert err.splitlines()[-1] == (
            f"sup_ratio={payload['sup_ratio']!r} bound_2k={payload['bound_2k']!r} "
            f"pass={payload['pass']} bounded={payload['bounded']}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_engine_entry_points_called_once(self, capsys, monkeypatch, fmt):
        # the benchmark's per-layer spans wrap these two public names
        calls = []
        for name in ("carleson_constant", "sweep_is_bounded"):
            original = getattr(bmoa, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(bmoa, name, counted)
        code, _, _ = run(capsys, ["carleson", "--depth", "3", "--classic-n", "16",
                                  "--format", fmt])
        assert code == 0
        assert calls == ["carleson_constant", "sweep_is_bounded"]


def carleson_payload(c, depth, centers):
    """The sweep's JSON payload, laid out from the report's fields."""
    report = carleson_constant(c, depth=depth, centers_per_length=centers)
    return {
        "arcs": [{"center": center, "length": length, "box_integral": box, "ratio": ratio}
                 for length, center, box, ratio in zip(
                     report.lengths.tolist(), report.centers.tolist(),
                     report.box_integrals.tolist(), report.ratios.tolist())],
        "sup_ratio": report.sup_ratio, "k_constant": report.k_constant,
        "bound_2k": report.bound_2k, "pass": report.passes_2k,
        "eta_estimate": report.eta_estimate, "xnorm_sq": report.xnorm_sq,
        "finding": report.finding, "bounded": sweep_is_bounded(report),
        "params": {"arcs": len(report.lengths),
                   "normalization": "an arc of normalized length L spans 2*pi*L radians, "
                                    "its box has depth L, and its ratio is box_integral / L"},
    }


class TestCarlesonJsonBytes:
    """The arc records are spliced into the JSON; json.dumps is the byte oracle."""

    @pytest.mark.parametrize("depth, centers, n", [
        (0, 8, 64),       # one arc, the whole circle
        (5, 1, 64),       # one center per length
        (12, 8, 1024),    # the classic sweep, many row blocks
        (3, 2, 1),        # no derivative: every box is 0.0
    ])
    def test_classic(self, capsys, depth, centers, n):
        code, out, _ = run(capsys, ["carleson", "--depth", str(depth), "--centers", str(centers),
                                    "--classic-n", str(n)])
        assert code == 0
        payload = carleson_payload(classic_sequence(n), depth, centers)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_sequence_input(self, capsys, tmp_path):
        path = tmp_path / "slow.csv"
        write_sequence_csv(path, trace_to_xsequence(slow_decay_sequence(0.6, 1.5, 300)))
        code, out, _ = run(capsys, ["carleson", "--depth", "6", "--sequence", str(path)])
        assert code == 0
        payload = carleson_payload(read_sequence_csv(path), 6, 8)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_zero_sequence(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        write_sequence_csv(path, XSequence(np.zeros(40)))
        code, out, _ = run(capsys, ["carleson", "--depth", "4", "--sequence", str(path)])
        assert code == 0
        payload = carleson_payload(read_sequence_csv(path), 4, 8)
        assert all(arc["box_integral"] == 0.0 for arc in payload["arcs"])
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def table_records(table):
    """A table of columns as its list of records, the layout json.dumps sees."""
    return [dict(zip(table, row)) for row in zip(*(col.tolist() for col in table.values()))]


class TestJsonSplice:
    @pytest.mark.parametrize("payload", [
        {"a": 1, "list": [], "z": "last"},
        {"list": [0.1, -2.5e-300, 1e300, 3.0], "a": {"nested": [1, 2]}},
        {"b": True, "list": {"y": np.array([1.5, 1e-300]), "x": np.array([-0.0, 3.0]),
                             "%s": np.array([2.0, -2.5e16]), "b\"q": np.array([0.5, 0.1])}},
        {"list": {"only": np.array([7.25])}},
        {"list": {"a": np.array([]), "b": np.array([])}, "z": 0},
    ])
    def test_matches_indented_dumps(self, capsys, payload):
        cli._emit_json(SimpleNamespace(out=None), payload, splice="list")
        if isinstance(payload["list"], dict):
            payload = {**payload, "list": table_records(payload["list"])}
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("items", [
        {"y": np.array([1.5, -0.0]), "x": np.array([2.0])},   # columns of two lengths
        {},
        {"a": np.array([0.5, None])},              # objects
        {"a": np.ones((2, 1))},
        {"a": np.array([1, 2])},                   # json writes an int without ".0"
        {"a": np.array([True])},
        {"a": np.array([1.0]), "b": np.array(["text"])},
        {"a": np.array([1.0], dtype=np.float32)},
    ])
    def test_records_outside_the_table_raise(self, capsys, tmp_path, items):
        kept = tmp_path / "kept.json"
        kept.write_text("earlier output\n")
        for out in (None, str(kept)):
            with pytest.raises(ValueError, match="spliced records"):
                cli._emit_json(SimpleNamespace(out=out), {"n": 1, "list": items}, splice="list")
        assert capsys.readouterr().out == ""
        assert kept.read_text() == "earlier output\n"

    @pytest.mark.parametrize("n", range(1, 10))
    def test_records_across_chunk_edges_match_indented_dumps(self, capsys, monkeypatch, n):
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 4)
        rng = np.random.default_rng(n)
        table = {"length": 2.0 ** -np.arange(n), "center": rng.uniform(0, 7, n),
                 "box_integral": rng.lognormal(0, 30, n), "ratio": np.full(n, -0.0)}
        payload = {"arcs": table, "sup_ratio": 1.5, "pass": True}
        cli._emit_json(SimpleNamespace(out=None), payload, splice="arcs")
        want = json.dumps({**payload, "arcs": table_records(table)}, sort_keys=True, indent=2)
        assert capsys.readouterr().out == want + "\n"

    def test_nan_in_last_record_chunk_writes_nothing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 4)
        items = {"a": np.arange(9.0), "b": np.full(9, 0.5)}
        items["b"][-1] = np.nan
        kept = tmp_path / "kept.json"
        kept.write_text("earlier output\n")
        for out in (None, str(kept)):
            with pytest.raises(ValueError, match="JSON compliant"):
                cli._emit_json(SimpleNamespace(out=out), {"n": 1, "list": items}, splice="list")
        assert capsys.readouterr().out == ""
        assert kept.read_text() == "earlier output\n"

    @pytest.mark.parametrize("items", [
        [1.0, float("nan")],
        [float("inf")],
        [-float("inf"), 2.0],
        {"a": np.array([1.0, np.nan])},
        {"a": np.array([1.0]), "b": np.array([-np.inf])},
    ])
    def test_non_finite_item_raises(self, capsys, items):
        with pytest.raises(ValueError):
            cli._emit_json(SimpleNamespace(out=None), {"n": 1, "list": items}, splice="list")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 22])
    def test_array_in_small_blocks_matches_indented_dumps(self, capsys, monkeypatch, n):
        monkeypatch.setattr(seqspace, "_BLOCK", 5)
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 4)
        items = np.random.default_rng(n).uniform(-1.0, 1.0, n) * 1e-3
        cli._emit_json(SimpleNamespace(out=None), {"n": n, "list": items}, splice="list")
        want = json.dumps({"n": n, "list": items.tolist()}, sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == want

    def test_nan_in_last_block_writes_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(seqspace, "_BLOCK", 5)
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 4)   # the NaN is in the last chunk too
        items = np.arange(1.0, 23.0)
        items[-1] = np.nan
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._emit_json(SimpleNamespace(out=None), {"n": 1, "list": items}, splice="list")
        assert capsys.readouterr().out == ""

    def test_nan_in_last_block_leaves_out_file_alone(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(seqspace, "_BLOCK", 5)
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 4)
        items = np.arange(1.0, 23.0)
        items[-1] = np.nan
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("earlier output\n")
        for target in (fresh, kept):
            with pytest.raises(ValueError, match="JSON compliant"):
                cli._emit_json(SimpleNamespace(out=str(target)), {"n": 1, "list": items},
                               splice="list")
        assert capsys.readouterr().out == ""
        assert not fresh.exists()
        assert kept.read_text() == "earlier output\n"


class TestKconst:
    def test_limit_reported(self, capsys):
        code, out, _ = run(capsys, ["kconst", "--rmax", "0.99"])
        assert code == 0
        payload = json.loads(out)
        assert payload["limit"] == pytest.approx((1 - np.exp(-2.0)) ** -2, abs=1e-12)
        assert payload["value"] < payload["limit"]
        assert payload["params"] == {"rmax": 0.99, "m_max": 99}

    def test_samples_flag_removed(self, capsys):
        code, out, _ = run(capsys, ["kconst", "--rmax", "0.99", "--samples", "4"])
        assert code == 2
        assert out == ""


class TestFactorize:
    def test_report_and_factor_files(self, capsys, poly_file, tmp_path):
        out_g = str(tmp_path / "g.csv")
        out_h = str(tmp_path / "h.csv")
        code, out, _ = run(capsys, ["factorize", poly_file, "--out-g", out_g,
                                    "--out-h", out_h])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual_max"] <= 1e-10
        assert payload["norm_defect"] <= 1e-10
        assert payload["blaschke_degree"] == 0
        from hardyhilbert.hardyspace import read_polynomial_csv
        g = read_polynomial_csv(out_g)
        assert g.degree == 1

    def test_circle_root_exit_code(self, capsys, tmp_path):
        path = tmp_path / "sing.csv"
        write_polynomial_csv(path, AnalyticPoly([1.0, 1.0]))
        code, _, err = run(capsys, ["factorize", str(path)])
        assert code == 3
        assert "circle" in err

    def test_grid_flag_removed(self, capsys, poly_file):
        # the grid starts at max(4096, 16 (d + 1)) and doubles as needed
        code, out, err = run(capsys, ["factorize", poly_file, "--grid", "4096"])
        assert code == 2
        assert out == ""
        assert "--grid" in err


class TestHardyCheck:
    def test_verdict_holds(self, capsys, poly_file, classic_file):
        code, out, _ = run(capsys, ["hardy-check", poly_file, "--sequence", classic_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["degree_bound"]["verdict"] == "holds"
        assert payload["hardy_sum"] == pytest.approx(1.0 + 0.5 + 0.25 / 3.0, rel=1e-14)

    def test_skipped_is_nonconvergence_exit(self, capsys, monkeypatch, poly_file):
        real = inequalities.matrix_norm

        def unconverged(c, N, method=inequalities.LANCZOS):
            est = real(c, N, method)
            est.converged = False
            return est

        monkeypatch.setattr(inequalities, "matrix_norm", unconverged)
        code, out, _ = run(capsys, ["hardy-check", poly_file])
        assert code == 3
        bound = json.loads(out)["degree_bound"]
        assert bound["verdict"] == "skipped"
        assert "unconverged" in bound["reason"]

    def test_unconverged_panels_exit_3(self, capsys, monkeypatch, tmp_path):
        # 1 + z has its zero on the circle, so its 1-norm runs the panel route;
        # one pass can never agree with a previous one
        monkeypatch.setattr(hardyspace, "_PANEL_ROUNDS", 1)
        path = tmp_path / "kink.csv"
        write_polynomial_csv(path, AnalyticPoly([1.0, 1.0]))
        code, out, err = run(capsys, ["hardy-check", str(path)])
        assert code == 3
        assert err.startswith("error:")
        assert out == ""

    def test_one_norm_computed_once(self, capsys, monkeypatch, tmp_path):
        # the ratio and the degree bound share one ||f||_1: for 1 + z/2 that is
        # one trapezoid pair (M and 2M points), not two
        calls = []
        real = hardyspace._trap_mean_abs

        def counting(f, M):
            calls.append(M)
            return real(f, M)

        monkeypatch.setattr(hardyspace, "_trap_mean_abs", counting)
        path = tmp_path / "poly.csv"
        write_polynomial_csv(path, AnalyticPoly([1.0, 0.5]))
        code, out, _ = run(capsys, ["hardy-check", str(path)])
        assert code == 0
        assert calls == [4096, 8192]
        # sum |a_n| c_n = 1 + 1/4 over the unit-norm classic weight
        assert json.loads(out)["hardy_ratio"] == 1.25 / hp_norm(AnalyticPoly([1.0, 0.5]), 1)

    @pytest.mark.parametrize("coeffs, values", [([0.0], [1.0, 0.5]), ([1.0, 0.5], [0.0, 0.0, 0.0])])
    def test_zero_input_is_usage_error(self, capsys, tmp_path, coeffs, values):
        poly, seq = tmp_path / "poly.csv", tmp_path / "seq.csv"
        write_polynomial_csv(poly, AnalyticPoly(coeffs))
        write_sequence_csv(seq, XSequence(values))
        code, out, err = run(capsys, ["hardy-check", str(poly), "--sequence", str(seq)])
        assert code == 2
        assert "ratio undefined for the zero" in err
        assert out == ""

    def test_tolerance_echo_is_the_check_default(self, capsys, monkeypatch, poly_file):
        # the echoed tolerance is the one the check applies: patched, both move
        monkeypatch.setattr(inequalities, "DEGREE_BOUND_TOL", 0.25)
        code, out, _ = run(capsys, ["hardy-check", poly_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["tolerance"] == 0.25
        f = AnalyticPoly([1.0, 1.0, 0.25])
        est = inequalities.matrix_norm(seqspace.classic_sequence(5), 3)
        assert payload["degree_bound"]["rhs"] == est.value * hp_norm(f, 1) * 1.25


class TestSuiteCommand:
    def test_passing_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(harness.DEFAULT_CASES, "bridge_identity", 5)
        monkeypatch.setitem(harness.DEFAULT_CASES, "norm_scaling", 5)
        monkeypatch.setitem(harness.DEFAULT_CASES, "slow_decay_certificate", 2)
        monkeypatch.setitem(harness.DEFAULT_CASES, "pairing_phase_identity", 3)
        monkeypatch.setitem(harness.DEFAULT_CASES, "hardy_degree_bound", 2)
        monkeypatch.setitem(harness.DEFAULT_CASES, "factorization_contract", 2)
        monkeypatch.setitem(harness.DEFAULT_CASES, "witness_closure", 2)
        monkeypatch.setitem(harness.DEFAULT_CASES, "carleson_bounded", 1)
        code, out, _ = run(capsys, ["suite", "--seed", "9"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"]
        assert payload["seed"] == 9

    def test_failing_suite_exit_code(self, capsys, monkeypatch):
        fake = harness.SuiteReport(
            properties=[harness.PropertyResult("bridge_identity", 1, 1, 1.0, [])],
            passed=False, seed=0, fingerprint={})
        monkeypatch.setattr(harness, "run_suite", lambda config: fake)
        code, out, _ = run(capsys, ["suite", "--seed", "0"])
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_csv_verdict_on_stderr(self, capsys, monkeypatch):
        fake = harness.SuiteReport(
            properties=[harness.PropertyResult("bridge_identity", 1, 1, 1.0, [])],
            passed=False, seed=5, fingerprint={})
        monkeypatch.setattr(harness, "run_suite", lambda config: fake)
        code, out, err = run(capsys, ["suite", "--seed", "5", "--format", "csv"])
        assert code == 1
        assert out == "name,cases,failures,worst_margin\nbridge_identity,1,1,1.0\n"
        assert err == "pass=False seed=5\n"

    def test_nan_margin_exit_code(self, capsys, monkeypatch):
        for name in list(harness.DEFAULT_CASES):
            monkeypatch.setitem(harness.DEFAULT_CASES, name, 1)
        monkeypatch.setattr(inequalities, "hilbert_form", lambda a, b, c: float("nan"))
        code, out, _ = run(capsys, ["suite", "--seed", "9"])
        assert code == 1

        def reject(token):
            raise ValueError(token)

        payload = json.loads(out, parse_constant=reject)
        assert payload["pass"] is False
        assert payload["properties"][0]["worst_margin"] is None

    def test_nan_margin_csv_cell(self, capsys, monkeypatch):
        # the CSV is a view of the JSON record, where a NaN margin is null
        for name in list(harness.DEFAULT_CASES):
            monkeypatch.setitem(harness.DEFAULT_CASES, name, 1)
        monkeypatch.setattr(inequalities, "hilbert_form", lambda a, b, c: float("nan"))
        code, out, _ = run(capsys, ["suite", "--seed", "9", "--format", "csv"])
        assert code == 1
        assert out.splitlines()[1] == "bridge_identity,1,1,None"


class TestUsageContract:
    def test_unknown_flag_is_error(self, capsys, classic_file):
        code, _, _ = run(capsys, ["xnorm", classic_file, "--bogus"])
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["explode"])
        assert code == 2

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2
        assert "usage" in err.lower()

    def test_out_writes_file_and_keeps_stdout_clean(self, capsys, classic_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["xnorm", classic_file, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["norm"] == 1.0

    def test_factorize_rejects_csv_format(self, capsys, poly_file):
        code, _, _ = run(capsys, ["factorize", poly_file, "--format", "csv"])
        assert code == 2


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_match_first_calls(self, capsys, classic_file, tmp_path):
        # one process, one parser: a usage error, a success, CSV, --out, then
        # a call without --out; every round must give the first round's bytes
        target = tmp_path / "scan.csv"
        calls = [
            ["hilbert-norm", "--n-list", "2,4", "--bogus"],
            ["hilbert-norm", "--n-list", "2,4"],
            ["xnorm", classic_file, "--format", "csv"],
            ["hilbert-norm", "--n-list", "2,4", "--format", "csv", "--out", str(target)],
            ["kconst", "--rmax", "0.9"],
        ]
        rounds = []
        for _ in range(3):
            results = []
            for argv in calls:
                if target.exists():
                    target.unlink()
                code, out, err = run(capsys, argv)
                written = target.read_bytes() if target.exists() else None
                results.append((code, out, err, written))
            rounds.append(results)
        first = rounds[0]
        assert [r[0] for r in first] == [2, 0, 0, 0, 0]
        assert "unrecognized arguments" in first[0][2]
        assert first[3][1] == "" and first[3][3].startswith(b"N,norm,residual,iterations,converged\n")
        assert first[4][3] is None and json.loads(first[4][1])["params"]["rmax"] == 0.9
        assert rounds[1] == first
        assert rounds[2] == first


# Every subcommand, its JSON top-level keys, and its CSV header (None: JSON only).
# "{sequence}" and "{poly}" stand for input files made by the fixtures.
OUTPUT_LAYOUTS = {
    "xnorm": (["xnorm", "{sequence}"],
              ["n", "norm", "norm_sq", "params", "prefix_ratios"],
              "index,ratio"),
    "slowdecay": (["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "300"],
                  ["certificate", "export_norm", "infinitude", "params"],
                  "index,value,choice"),
    "hilbert-norm": (["hilbert-norm", "--n-list", "2,4,8", "--sequence", "{sequence}"],
                     ["params", "rows"],
                     "N,norm,residual,iterations,converged"),
    "equiv": (["equiv", "--n", "4"],
              ["N", "converged", "gap", "hardy_ratio", "matrix_norm", "params", "witness_degree"],
              "N,matrix_norm,hardy_ratio,gap,witness_degree,converged"),
    "carleson": (["carleson", "--depth", "3", "--centers", "2", "--classic-n", "16"],
                 ["arcs", "bound_2k", "bounded", "eta_estimate", "finding", "k_constant",
                  "params", "pass", "sup_ratio", "xnorm_sq"],
                 "length,center,box_integral,ratio"),
    "kconst": (["kconst", "--rmax", "0.99"],
               ["argmax_r", "limit", "params", "value"],
               "value,limit,argmax_r"),
    "factorize": (["factorize", "{poly}"],
                  ["blaschke_degree", "degrees", "norm_defect", "params", "residual_max"],
                  None),
    "hardy-check": (["hardy-check", "{poly}", "--sequence", "{sequence}"],
                    ["degree_bound", "hardy_ratio", "hardy_sum", "params"],
                    "hardy_sum,hardy_ratio,verdict,lhs,rhs,slack,reason"),
    "suite": (["suite", "--seed", "3"],
              ["fingerprint", "pass", "properties", "seed"],
              "name,cases,failures,worst_margin"),
}


def test_layout_table_names_every_subcommand():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(OUTPUT_LAYOUTS)


@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command, (_, _, header) in OUTPUT_LAYOUTS.items()
    for fmt in (["json", "csv"] if header else ["json"])])
def test_out_file_matches_stdout_and_layout(capsys, monkeypatch, tmp_path, classic_file,
                                            poly_file, command, fmt):
    for name in list(harness.DEFAULT_CASES):   # a short suite: its layout is what counts
        monkeypatch.setitem(harness.DEFAULT_CASES, name, 1)
    template, keys, header = OUTPUT_LAYOUTS[command]
    argv = [a.format(sequence=classic_file, poly=poly_file) for a in template]
    argv += ["--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0
    target = tmp_path / f"out.{fmt}"
    assert run(capsys, argv + ["--out", str(target)]) == (code, "", err)
    assert target.read_bytes() == out.encode()
    if fmt == "json":
        assert sorted(strict_json(out)) == keys
    else:
        assert out.split("\n", 1)[0] == header
        csv_table(out)


def scalar_fields(record):
    """A JSON record's scalar fields, a nested record's in its place, params
    and lists left out: the fields a CSV row of it shows."""
    fields = {}
    for key, value in record.items():
        if isinstance(value, dict):
            if key != "params":
                fields.update(scalar_fields(value))
        elif not isinstance(value, list):
            fields[key] = value
    return fields


@pytest.mark.parametrize("command", ["hilbert-norm", "equiv", "carleson", "kconst",
                                     "hardy-check", "suite"])
def test_csv_is_a_view_of_json(capsys, monkeypatch, tmp_path, classic_file, command):
    for name in list(harness.DEFAULT_CASES):
        monkeypatch.setitem(harness.DEFAULT_CASES, name, 1)
    # 1 + z takes hp_norm's panel route, whose 1-norm is a numpy float: the
    # hardy-check cells must still be plain float text
    kink = tmp_path / "kink.csv"
    write_polynomial_csv(kink, AnalyticPoly([1.0, 1.0]))
    argv = [a.format(sequence=classic_file, poly=str(kink)) for a in OUTPUT_LAYOUTS[command][0]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    record = json.loads(out)
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    tables = [v for v in record.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
    items = tables[0] if tables else [record]
    assert len(tables) <= 1 and len(rows) == len(items)
    assert len(set(header)) == len(header)   # JSON sorts its keys; the header order is pinned above
    for item, row in zip(items, rows):
        fields = scalar_fields(item)
        assert sorted(header) == sorted(fields)
        for key, cell in zip(header, row, strict=True):
            value = fields[key]
            if isinstance(value, float):
                assert float(cell).hex() == value.hex()
            else:   # bools, ints and strings as text
                assert cell == str(value)


def readme_commands():
    """The argument lists of the hardyhilbert lines in the README's
    ``## Command line`` block, their ``#`` comments cut."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("hardyhilbert ")]
    assert commands, "no hardyhilbert line under ## Command line in README.md"
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command(cli_run, argv):
    # every README invocation exits 0 (an unconverged Hankel solve exits 3)
    # and writes strict JSON, or CSV with every row as wide as its header;
    # the pipe line is TestPipeInput's
    run = cli_run(*argv)
    assert run.code == 0, run.err.decode()
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        csv_table(run.out.decode())
    else:
        strict_json(run.out)


def repr_rows(*columns):
    """Rows of comma-joined repr cells, one per line."""
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def test_table_writers_match_repr_rows(cli_run, trace_csv_peak):
    """Every caller of the chunked table writer, run by a fresh CLI process,
    writes float.__repr__: the text equals f-string repr rows or json.dumps.

    The 300001-step trace spans many chunks of 2^12 rows, on stdout and
    through --out alike; then its xnorm JSON and CSV, the carleson arcs in
    JSON and CSV (whose stderr ends with the JSON's verdict) on the classic
    sequence and on a trace file, and the factorize g/h files.
    """
    trace = trace_csv_peak[1]
    t = slow_decay_sequence(0.62, 1.3, 300001)
    values = np.concatenate(list(t.values())).tolist()
    labels = ["power" if f else "harmonic" for f in np.concatenate(list(t.choice()))]
    want = "".join([f"index,value,choice\n0,{values[0]!r},{labels[0]}\n"]
                   + [f"{i + 1},{v!r},{labels[i]}\n" for i, v in enumerate(values)]).encode()
    stdout = cli_run("slowdecay", "--r", "0.62", "--beta", "1.3", "--n", "300001",
                     "--format", "csv")
    assert stdout.code == 0
    assert stdout.out == want
    assert trace.read_bytes() == want

    c = XSequence(values[:1] + values)
    payload = {"n": len(c), "norm": xnorm(c), "norm_sq": c.xnorm_sq,
               "params": {"input": str(trace)}, "prefix_ratios": c.ratios.tolist()}
    out = cli_run("xnorm", str(trace)).out
    strict_json(out)
    assert out.decode() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = cli_run("xnorm", str(trace), "--format", "csv").out
    assert out.decode() == "index,ratio\n" + repr_rows(range(len(c)), c.ratios.tolist())

    for source in (["--classic-n", "1024"], ["--sequence", "sequence.csv"]):
        out = cli_run("carleson", "--depth", "12", *source).out.decode()
        rec = strict_json(out)
        assert out == json.dumps(rec, sort_keys=True, indent=2) + "\n"
        table = cli_run("carleson", "--depth", "12", *source, "--format", "csv")
        arcs = rec["arcs"]
        assert table.out.decode() == "length,center,box_integral,ratio\n" + repr_rows(
            *([a[key] for a in arcs] for key in ("length", "center", "box_integral", "ratio")))
        assert table.err.decode().splitlines()[-1] == (
            f"sup_ratio={rec['sup_ratio']!r} bound_2k={rec['bound_2k']!r} "
            f"pass={rec['pass']} bounded={rec['bounded']}")

    work = cli_run.cwd
    (work / "factor-f.csv").write_text(
        "index,re,im\n0,1.0,0.0\n1,0.5,-0.25\n2,-0.3,0.1\n3,0.0,0.2\n4,0.125,0.0\n")
    assert cli_run("factorize", "factor-f.csv", "--out-g", "factor-g.csv",
                   "--out-h", "factor-h.csv").code == 0
    report = hardyspace.factorization_report(hardyspace.read_polynomial_csv(work / "factor-f.csv"))
    for name, poly in (("g", report.g), ("h", report.h)):
        z = poly.coeffs.tolist()
        assert (work / f"factor-{name}.csv").read_bytes() == ("index,re,im\n" + repr_rows(
            range(len(z)), [v.real for v in z], [v.imag for v in z])).encode()
