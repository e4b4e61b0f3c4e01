"""Command-line front end: one subcommand per engine, JSON or CSV out.

Data goes to the output stream (--out PATH, default stdout) in exactly the
requested format; diagnostics and findings go to stderr.  Exit codes:
0 success, 1 property failure, 2 usage error, 3 numerical non-convergence.
Reports embed the defaults they ran with, so reruns with the same BLAS
thread count are reproducible: large Hankel norms can move in their last
bits with that count (``hilbert-norm --n-list 1048576`` differs in its
16th digit between the default threads and OPENBLAS_NUM_THREADS=1), and
no report echoes it.

Each summary subcommand builds one record, a dict, and _emit_report writes
it as JSON or as a CSV view of it; the engines return plain dataclasses.
A long list of records travels as a table of float64 columns (``carleson``'s
arcs), which the chunked writer of ``_floattext`` turns into JSON records
or CSV rows without an object per row.
The interchange CSVs (sequences, traces, polynomials) are read and written
by ``seqspace`` and ``hardyspace``, each writer next to its reader.

Engines load on first use: importing this module loads ``seqspace`` and
numpy only, and ``hardyspace``, ``bmoa``, ``inequalities`` and ``harness``
are imported inside the subcommands that call them, so a fresh process
compiles and runs only the engines its subcommand needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from . import _floattext, seqspace
from ._version import __version__


def _emit(args, chunks) -> None:
    """Write an iterable of text chunks to --out (default stdout).

    The file is opened, so created or truncated, only here; a payload that
    is refused must raise before this is called.
    """
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args, payload: dict, splice: str | None = None) -> None:
    """``payload`` as key-sorted, indented, strict JSON, with the bytes of
    ``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``.

    ``splice`` names a top-level key whose value is one large list: a list
    or 1-d array of floats, or a table of float64 columns (_list_chunks),
    written as a list of records, one per row, with the table's keys.  json's indented
    encoder is pure Python and handles each item in turn; instead the rest
    of the payload is dumped with a placeholder string in the list's place,
    the text is split at the placeholder, and the items, at the list's
    indentation, are written between the two halves.  The items come from
    _floattext.table, one chunk at a time, so the list's text is never held
    whole; its floats are their shortest round-trip repr, the text json
    writes.  A non-finite float and a table that is not one raise
    ValueError, found before a byte is written.
    """
    if splice is None:
        _emit(args, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"])
        return
    items = _list_chunks(payload[splice])
    text = json.dumps({**payload, splice: _PLACEHOLDER}, sort_keys=True, indent=2,
                      allow_nan=False)
    head, tail = text.split(json.dumps(_PLACEHOLDER), 1)
    _emit(args, chain([head], items, [tail + "\n"]))


# a string no other value of a payload holds: file paths cannot contain NUL
_PLACEHOLDER = "\0spliced list\0"
_ITEM = "\n    "        # a top-level list's items sit at depth 2 of indent=2
_FIELD = "\n      "      # and a record's fields at depth 3


def _list_chunks(items):
    """Text chunks of json.dumps(items, indent=2) for a list at a top-level
    key of a payload, from _floattext.table: one row per item, each after
    its separator.  A table, a nonempty dict from key to a column (a 1-d
    float64 array), every column of one length, is written as its list of
    records, one per row.  Raises on a bad item before returning."""
    if isinstance(items, dict):
        keys = sorted(items)
        columns = [np.asarray(items[k]) for k in keys]
        if not keys or {(col.dtype, col.shape) for col in columns} != {
                (np.dtype(float), (columns[0].size,))}:
            raise ValueError("spliced records must be a table: equal-length 1-d float64 columns")
        heads = ("," * (j > 0) + _FIELD + json.dumps(k) + ": " for j, k in enumerate(keys))
        fields = ["{", *chain(*zip(heads, columns)), _ITEM + "}"]
    else:
        columns = fields = [np.asarray(items, dtype=float)]
    if columns[0].size == 0:
        return ["[]"]
    # NaN propagates into both extremes, and an infinity is one of them
    if not all(math.isfinite(col.min()) and math.isfinite(col.max()) for col in columns):
        raise ValueError("Out of range float values are not JSON compliant")
    chunks = _floattext.table("," + _ITEM, *fields)
    first = next(chunks)
    return chain(["[" + first[1:]], chunks, ["\n  ]"])


def _emit_report(args, record: dict, splice: str | None = None,
                 verdict: tuple[str, ...] = ()) -> None:
    """``record`` as JSON (_emit_json, with its ``splice``), or with
    ``--format csv`` as a table: the record's ``splice`` table of float64
    columns (_list_chunks) with its keys in order as the header, else one row per
    item of the record's one list of records, or else the record itself as
    one row.  A row's cells are the item's fields as _cells flattens them,
    and the header is their keys.  A table leaves the record's own fields
    out, so in CSV mode the fields named in ``verdict`` go to stderr as one
    ``key=value`` line.

    Cells are written by str(), LF line ends: a float cell's str() is its
    repr, so it reads back bit for bit.  No cell written here holds a comma,
    quote or line break, so none is quoted.  A table's float columns are
    written by _floattext.table, the same repr text.
    """
    if args.format != "csv":
        _emit_json(args, record, splice)
        return
    if verdict:
        print(" ".join(f"{key}={record[key]}" for key in verdict), file=sys.stderr)
    if isinstance(table := record.get(splice), dict):
        separated = chain(*zip(table.values(), [","] * (len(table) - 1) + ["\n"]))
        _emit(args, chain([",".join(table) + "\n"], _floattext.table(*separated)))
        return
    items = next((v for v in record.values() if isinstance(v, list) and v
                  and isinstance(v[0], dict)), [record])
    rows = [dict(_cells(item)) for item in items]
    lines = chain([rows[0].keys()], (row.values() for row in rows))
    _emit(args, ["".join(",".join(map(str, line)) + "\n" for line in lines)])


def _cells(record: dict):
    """(key, value) of a record's scalar fields in order, with a nested
    record's fields in its place; ``params`` and lists are left out."""
    for key, value in record.items():
        if isinstance(value, dict):
            if key != "params":
                yield from _cells(value)
        elif not isinstance(value, list):
            yield key, value


def _load_sequence(args, default_len: int) -> seqspace.XSequence:
    path = getattr(args, "sequence", None)
    if path:
        return seqspace.read_sequence_csv(path)
    n = getattr(args, "classic_n", None)
    return seqspace.classic_sequence(default_len if n is None else n)


def _cmd_xnorm(args) -> int:
    c = seqspace.read_sequence_csv(args.file)
    ratios = seqspace.prefix_ratios(c)
    if args.format == "csv":
        print(f"xnorm {seqspace.xnorm(c)!r} over N={len(c)}", file=sys.stderr)
        _emit(args, chain(["index,ratio\n"], seqspace.indexed_csv(ratios)))
    else:
        _emit_json(args, {
            "n": len(c),
            "norm": seqspace.xnorm(c),
            "norm_sq": c.xnorm_sq,
            "params": {"input": args.file},
            "prefix_ratios": ratios,
        }, splice="prefix_ratios")
    return 0


def _cmd_slowdecay(args) -> int:
    s = args.s if args.s is not None else args.r + 0.1
    # r, beta and N first, since s defaults to r + 0.1; the CSV has no report, but --s is checked
    seqspace.check_slow_decay_parameters(args.r, args.beta, args.n)
    seqspace.check_growth_exponent(args.r, s, args.n)
    trace = seqspace.slow_decay_sequence(args.r, args.beta, args.n)
    if args.format == "csv":
        cert = seqspace.verify_margins(trace)
        print(f"certificate ok={cert.ok} min_margin={cert.min_margin!r}", file=sys.stderr)
        _emit(args, seqspace.trace_csv(trace))
    else:
        full = seqspace.slow_decay_report(trace, s)
        cert = full.certificate
        infinitude = dataclasses.asdict(full.infinitude)
        del infinitude["s"]   # params echoes it
        _emit_json(args, {
            "params": {"r": args.r, "beta": args.beta, "n": args.n, "s": s},
            "certificate": dataclasses.asdict(cert),
            "infinitude": infinitude,
            "export_norm": full.export_norm,
        })
    return 0 if cert.ok else 1


def _cmd_hilbert_norm(args) -> int:
    from . import inequalities

    sizes = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not sizes:
        raise ValueError("--n-list must name at least one truncation size")
    c = _load_sequence(args, 2 * max(sizes) - 1)
    estimates = inequalities.best_constant_scan(c, sizes, method=args.method)
    _emit_report(args, {
        "rows": [{"N": e.N, "norm": e.value, "residual": e.residual,
                  "iterations": e.iterations, "converged": e.converged}
                 for e in estimates],
        "params": {"method": args.method, "sequence_len": len(c)},
    })
    return 0 if all(e.converged for e in estimates) else 3


def _cmd_equiv(args) -> int:
    from . import inequalities

    c = _load_sequence(args, 2 * args.n - 1)
    report = inequalities.equivalence_witness(c, args.n, M=args.grid)
    _emit_report(args, {
        "N": report.N, "matrix_norm": report.matrix_norm, "hardy_ratio": report.hardy_ratio,
        "gap": report.gap, "witness_degree": report.witness.degree,
        "converged": report.estimate.converged,
        "params": {"grid": report.grid, "method": report.estimate.method,
                   "residual_tol": inequalities.RESIDUAL_TOL},
    })
    return 0 if report.estimate.converged else 3


def _cmd_carleson(args) -> int:
    from . import bmoa

    c = _load_sequence(args, 256)
    report = bmoa.carleson_constant(c, depth=args.depth, centers_per_length=args.centers)
    bounded = bmoa.sweep_is_bounded(report)
    if report.finding:
        print(report.finding, file=sys.stderr)
    _emit_report(args, {
        "arcs": {"length": report.lengths, "center": report.centers,
                 "box_integral": report.box_integrals, "ratio": report.ratios},
        "sup_ratio": report.sup_ratio,
        "k_constant": report.k_constant,
        "bound_2k": report.bound_2k,
        "pass": report.passes_2k,
        "eta_estimate": report.eta_estimate,
        "xnorm_sq": report.xnorm_sq,
        "finding": report.finding,
        "bounded": bounded,
        "params": {"arcs": report.lengths.size, "normalization": bmoa.NORMALIZATION},
    }, splice="arcs", verdict=("sup_ratio", "bound_2k", "pass", "bounded"))
    return 0 if bounded else 1


def _cmd_kconst(args) -> int:
    from . import bmoa

    scan = bmoa.k_constant(args.rmax)
    _emit_report(args, {"value": scan.value, "limit": scan.limit, "argmax_r": scan.argmax_r,
                        "params": {"rmax": scan.r_max, "m_max": scan.m_max}})
    return 0


def _cmd_factorize(args) -> int:
    from . import hardyspace

    f = hardyspace.read_polynomial_csv(args.file)
    report = hardyspace.factorization_report(f)
    if args.out_g:
        hardyspace.write_polynomial_csv(args.out_g, report.g)
    if args.out_h:
        hardyspace.write_polynomial_csv(args.out_h, report.h)
    _emit_report(args, {
        "residual_max": report.residual_max,
        "norm_defect": report.norm_defect,
        "blaschke_degree": report.blaschke_degree,
        "degrees": {"f": f.degree, "g": report.g.degree, "h": report.h.degree},
        "params": {"grid": report.grid_size,
                   "residual_rel_tol": hardyspace.FACTOR_RESIDUAL_REL},
    })
    return 0


def _cmd_hardy_check(args) -> int:
    from . import hardyspace, inequalities

    f = hardyspace.read_polynomial_csv(args.file)
    c = _load_sequence(args, 2 * f.degree + 1)
    total = inequalities.hardy_sum(f, c)
    norm1 = hardyspace.hp_norm(f, 1)
    ratio = inequalities.hardy_ratio(f, c, norm1=norm1)
    check = inequalities.hardy_degree_bound_check(f, c, norm1=norm1)
    verdict = "skipped" if check.skipped else ("holds" if check.holds else "violated")
    _emit_report(args, {
        "hardy_sum": total,
        "hardy_ratio": ratio,
        "degree_bound": {"verdict": verdict, "lhs": check.lhs, "rhs": check.rhs,
                         "slack": check.slack, "reason": check.reason},
        "params": {"degree": f.degree, "tolerance": inequalities.DEGREE_BOUND_TOL},
    })
    if check.skipped:
        print(f"degree bound skipped: {check.reason}", file=sys.stderr)
        return 3
    return 0 if check.holds else 1


def _cmd_suite(args) -> int:
    from . import harness

    config = harness.SuiteConfig(seed=args.seed)
    report = harness.run_suite(config)
    _emit_report(args, report.to_dict(), verdict=("pass", "seed"))
    return 0 if report.passed else 1


def _add_common(sub, csv_ok=True):
    sub.add_argument("--format", choices=["json", "csv"] if csv_ok else ["json"],
                     default="json")
    sub.add_argument("--out", default=None, help="output path (default standard output)")


def _add_sequence_source(sub):
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--sequence", help="sequence CSV (header index,value)")
    grp.add_argument("--classic-n", type=int, default=None,
                     help="use the 1/(k+1) sequence of this length")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building takes about 2.3 ms
    and a parse 0.06 ms (Python 3.11, 2 vCPU), and each parse returns a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hardyhilbert",
        description="Workbench for weighted coefficient inequalities on the disk",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("xnorm", help="sequence norm and prefix ratios")
    p.add_argument("file", help="sequence CSV (header index,value)")
    _add_common(p)
    p.set_defaults(func=_cmd_xnorm)

    p = sub.add_parser("slowdecay", help="slow-decay trace, certificate, recurrence report")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=None, help="growth exponent (default r + 0.1)")
    _add_common(p)
    p.set_defaults(func=_cmd_slowdecay)

    p = sub.add_parser("hilbert-norm", help="Hankel norm scan over truncation sizes")
    p.add_argument("--n-list", required=True, help="comma-separated truncation sizes")
    # inequalities.LANCZOS and DENSE_EIGEN, spelt out so the parser loads no engine
    p.add_argument("--method", choices=["lanczos", "dense_eigen"], default="lanczos")
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_hilbert_norm)

    p = sub.add_parser("equiv", help="extremal witness closing the two best constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=None, help="fft length, at least 2N-1")
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("carleson", help="dyadic box-integral sweep")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--centers", type=int, default=8)
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_carleson)

    p = sub.add_parser("kconst", help="the floor-power constant K over (0, rmax]")
    p.add_argument("--rmax", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_kconst)

    p = sub.add_parser("factorize", help="factor f = g*h with |g|=|h|=|f|^(1/2) on the circle")
    p.add_argument("file", help="polynomial CSV (header index,re,im)")
    p.add_argument("--out-g", default=None, help="write g as polynomial CSV")
    p.add_argument("--out-h", default=None, help="write h as polynomial CSV")
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("hardy-check", help="weighted sum, ratio, and degree-bound verdict")
    p.add_argument("file", help="polynomial CSV (header index,re,im)")
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_hardy_check)

    p = sub.add_parser("suite", help="run the randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 on --help, 2 on usage errors
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _convergence_error() as exc:   # evaluated only once an exception gets here
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _convergence_error() -> type:
    """hardyspace's ConvergenceError; only hardyspace raises it, so it is
    loaded already whenever one is raised."""
    from .hardyspace import ConvergenceError

    return ConvergenceError


def console_main() -> None:
    """The ``hardyhilbert`` script: main() with the default SIGPIPE action, so
    a reader that closes the pipe early (``| head``) ends the command
    quietly, as it does a C tool, in place of an error line and exit 2."""
    import signal

    if hasattr(signal, "SIGPIPE"):   # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
