"""Helpers shared by the test modules: the package run by a fresh interpreter,
and the strict readers of the CLI's JSON and CSV output.

A check on process-wide state (the peak resident set, the hash seed, the
modules an import loads, stdin as a pipe) runs in a fresh interpreter.
"""

import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest

import hardyhilbert
from hardyhilbert import cli

SRC = str(Path(hardyhilbert.__file__).resolve().parents[1])
MB = 2**20


@contextmanager
def traced_peak(out: list):
    """Append to ``out`` the peak traced memory (MiB) of the block's allocations."""
    tracemalloc.start()
    try:
        yield
        out.append(tracemalloc.get_traced_memory()[1] / MB)
    finally:
        tracemalloc.stop()


class Run(NamedTuple):
    code: int
    out: bytes
    err: bytes
    rss_mb: float | None = None   # peak resident set, MiB, where measured


def fresh_python(*args, cwd=None, input=None, timeout=300.0, **env) -> Run:
    """``python *args`` in a fresh interpreter that imports the package from
    SRC, with ``env`` added to its environment and ``input`` (bytes) piped
    to its stdin."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd, input=input, capture_output=True,
                          timeout=timeout, env=fresh_env(**env))
    return Run(proc.returncode, proc.stdout, proc.stderr)


def fresh_env(**env) -> dict:
    """The environment of a fresh interpreter that imports the package from
    SRC, with ``env`` added."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **env)


# The CLI on the arguments after the first, which names the file that then
# gets the process's VmHWM line: the peak resident set of its own memory
# map.  ru_maxrss would also count the test process's pages, which a child
# holds from its fork up to its exec.
_CLI_PEAK = """\
import sys
from hardyhilbert import cli
peak_file, *argv = sys.argv[1:]
try:
    code = cli.main(argv)
finally:
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-finite {name} in JSON")
    return json.loads(text, parse_constant=refuse)


def csv_table(text: str):
    """The header and rows of CSV text, with no header cell empty and every
    row as wide as the header: a comma in a string field, or a list leaking
    into a row, fails."""
    header, *rows = csv.reader(io.StringIO(text))
    assert all(header), f"empty header cell in {header}"
    for i, row in enumerate(rows):
        assert len(row) == len(header), f"row {i + 2} has {len(row)} cells, the header {len(header)}"
    return header, rows


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """The CLI run by a fresh interpreter, each distinct argument list once a
    session, with its peak resident set.

    It works in one directory, ``cli_run.cwd``, which holds the inputs the
    README's commands name: sequence.csv, the slow-decay trace (0.6, 1.5,
    1000) as the CLI writes it, and poly.csv, 1 + z + z^2/4.
    """
    work = tmp_path_factory.mktemp("cli")

    @functools.cache
    def run(*argv: str) -> Run:
        with tempfile.TemporaryDirectory() as tmp:
            peak = Path(tmp) / "peak"
            done = fresh_python("-c", _CLI_PEAK, str(peak), *argv, cwd=work)
            kib = int(peak.read_text().split()[1])   # "VmHWM:  123 kB"
        return done._replace(rss_mb=kib / 1024.0)

    run.cwd = work
    made = run("slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "1000", "--format", "csv",
               "--out", "sequence.csv")
    assert made.code == 0, made.err
    (work / "poly.csv").write_text("index,re,im\n0,1.0,0.0\n1,1.0,0.0\n2,0.25,0.0\n")
    return run


@pytest.fixture(scope="session")
def trace_csv_peak(tmp_path_factory):
    """The traced peak (MiB) of writing the 300001-step (0.62, 1.3) trace CSV
    in process, and the file."""
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    argv = ["slowdecay", "--r", "0.62", "--beta", "1.3", "--n", "300001",
            "--format", "csv", "--out", str(path)]
    peak = []
    with traced_peak(peak):
        code = cli.main(argv)
    assert code == 0
    return peak[0], path
