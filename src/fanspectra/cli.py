"""Command-line interface.

Commands:
    spectrum   closed-form and/or numeric spectrum of a family matrix
    matrix     dump a family matrix as text, CSV, or JSON
    quotient   canonical equitable quotient and its eigenvalues
    tables     recompute the bundled reference tables, flagging mismatches
    verify     closed-form vs numeric sweep over a parameter grid
    export     write a graph as an edge list or in DOT format

Families are ``fan`` (m hubs joined to an n-path) and ``nc`` (two such
fans with matched hubs).  Closed forms exist for the laplacian and
distance-laplacian kinds; every other kind is numeric only.  The family
and ``quotient`` kind choices, graph builders, canonical partitions and
closed forms all come from the case table ``verify.FAMILIES``.  ``verify --tol`` and
``--convergence-tol`` must be finite and positive, the latter at most 1e-12, and
``--grouping-tol``, an absolute group width, finite and non-negative.  Before
any graph is built, m and n must be at most ``verify.MAX_SWEEP_PARAM`` (64),
both tolerances must hold whatever the mode, and ``--t``, when given, must lie
in (0, 1), whatever the kind.

Exit codes: 0 success; 1 verify sweep found failing cases; 2 usage
errors; 3 invalid parameter values; 4 unsupported family/kind/mode
combination; 5 disconnected graph; 6 eigensolver non-convergence.
A reader that closes stdout early (``| head``) is not an error: the rest
of the output is dropped, nothing goes to stderr, and the command exits
with the status it would have had (0, or 1 for a failing verify),
whatever the size of its output.

Output is deterministic: text uses 6 significant digits, JSON full precision;
verify's JSON comes from ``verify.reports_to_json``, and nothing reads it back;
it, ``spectrum``'s closed payload and the ``tables`` rows are written by
``eigen.record``.  Only ``export -o`` writes a file (exit 3 if it cannot).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .eigen import (
    DEFAULT_CONVERGENCE_TOL,
    GROUPING_SCALE,
    JacobiConvergenceError,
    _check_convergence_tol,
    _check_tol,
    group_multiplicities,
    record,
    symmetric_eigenvalues,
)
from .graphs import DisconnectedGraphError, to_dot, to_edge_list
from .matrices import MatrixKind, _check_blend, build_matrix
from .quotient import quotient_eigenvalues, quotient_matrix
from .tables import reproduce_fan_table, reproduce_generalized_fan_table
from .verify import (
    CASES,
    CASE_KINDS,
    DEFAULT_CASE_TOL,
    FAMILIES,
    MAX_SWEEP_PARAM,
    UnsupportedCombination,
    _contained,
    closed_form,
    compare_spectra,
    reports_to_json,
    sweep,
)

EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMETER = 3
EXIT_UNSUPPORTED = 4
EXIT_DISCONNECTED = 5
EXIT_NO_CONVERGENCE = 6

KIND_CHOICES = [k.value for k in MatrixKind]


def _print(*values, end: str = "\n", flush: bool = False) -> None:
    """print to stdout, the one way the commands write their output.

    Once the reader has closed stdout, fd 1 is pointed at devnull: the rest
    of the output and the flush at interpreter shutdown are dropped, and the
    command runs on to the status it decides.
    """
    try:
        print(*values, end=end, flush=flush)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _case(args) -> dict:
    """The JSON head of a one-case command."""
    return {"family": args.family, "m": args.m, "n": args.n, "kind": args.kind}


def _cmd_spectrum(args) -> int:
    graph = FAMILIES[args.family].graph(args.m, args.n)
    payload = {**_case(args), "mode": args.mode}
    closed = numeric = None
    if args.mode != "numeric":
        closed = closed_form(args.family, args.kind)(args.m, args.n)
        payload["closed"] = record(closed)
    if args.mode != "closed":
        matrix = build_matrix(graph, args.kind, t=args.t)
        raw = symmetric_eigenvalues(matrix, convergence_tol=args.convergence_tol).tolist()
        numeric = group_multiplicities(raw, grouping_tol=args.grouping_tol)
        payload["numeric"] = {"pairs": numeric.pairs}
    both = args.mode == "both"
    if both:  # against the solver's own values, as verify_case compares them
        payload["max_abs_deviation"] = compare_spectra(closed, raw)
    if args.format == "json":
        _print(json.dumps(payload))
        return 0

    # one row per closed-form group when there is a closed form, in both mode with its deviation
    pairs = (numeric if closed is None else closed).pairs
    ends = itertools.accumulate(k for _, k in pairs)
    deviations = [compare_spectra([v] * k, raw[end - k : end]) if both else None for (v, k), end in zip(pairs, ends)]
    if args.format == "csv":
        _print("value,multiplicity" + (",deviation" if both else ""))
        for (v, k), d in zip(pairs, deviations):
            _print(f"{v!r},{k}" + (f",{d!r}" if both else ""))
        return 0

    _print(f"{args.family} m={args.m} n={args.n} {args.kind} [{args.mode}]")
    _print(f"{'value':>12}  {'mult':>4}" + (f"  {'deviation':>10}" if both else ""))
    for (v, k), d in zip(pairs, deviations):
        _print(f"{_fmt(v):>12}  {k:>4}" + (f"  {_fmt(d):>10}" if both else ""))
    if both:
        _print(f"max |closed - numeric| = {_fmt(payload['max_abs_deviation'])}")
    for note in closed.errata_notes if closed is not None else ():
        _print(f"note: {note}")
    return 0


def _words(values, spec: str = ".2f") -> str:
    return " ".join(format(v, spec) for v in values)


def _print_matrix_text(matrix: np.ndarray) -> None:
    for row in matrix:
        _print(" ".join(_fmt(v) for v in row))


def _cmd_matrix(args) -> int:
    graph = FAMILIES[args.family].graph(args.m, args.n)
    matrix = build_matrix(graph, args.kind, t=args.t)
    if args.format == "json":
        _print(json.dumps({"order": matrix.shape[0], "entries": matrix.ravel().tolist()}))
    elif args.format == "csv":
        for row in matrix:
            _print(",".join(repr(float(v)) for v in row))
    else:
        _print_matrix_text(matrix)
    return 0


def _cmd_quotient(args) -> int:
    family = FAMILIES[args.family]
    graph = family.graph(args.m, args.n)
    partition = family.partition(args.m, args.n)
    matrix = build_matrix(graph, args.kind)
    quotient = quotient_matrix(matrix, partition)
    eigenvalues = quotient_eigenvalues(matrix, partition, grouping_tol=args.grouping_tol)
    raw = symmetric_eigenvalues(matrix, convergence_tol=args.convergence_tol)
    contained = _contained(eigenvalues, raw)
    if args.format == "json":
        payload = {
            **_case(args),
            "block_sizes": partition.block_sizes,
            "matrix": quotient.tolist(),
            "eigenvalues": eigenvalues.pairs,
            "contained_in_full_spectrum": contained,
        }
        _print(json.dumps(payload))
        return 0
    _print(f"{args.family} m={args.m} n={args.n} {args.kind} quotient")
    _print(f"block sizes: {' '.join(str(s) for s in partition.block_sizes)}")
    _print_matrix_text(quotient)
    _print("eigenvalues:")
    for v, k in eigenvalues.pairs:
        _print(f"{_fmt(v):>12}  {k:>4}")
    _print(f"contained in full spectrum (tol {DEFAULT_CASE_TOL:g}): {'yes' if contained else 'NO'}")
    return 0


def _cmd_tables(args) -> int:
    if args.which == 1:
        rows = reproduce_fan_table()
        key_header = "n"
        titles = ["reference table 1: single-hub fans F(1, n)"]
    else:
        rows = reproduce_generalized_fan_table()
        key_header = "m n"
        titles = [
            "reference table 2: generalized fans F(m, n)",
            "note: reference column headers are swapped; keys shown are the true (m, n)",
        ]
    if args.format == "json":
        _print(json.dumps([record(row) for row in rows]))
        return 0
    if args.format == "csv":
        _print("key,column,ok,computed,reference")
        for row in rows:
            for column, cell in (("adjacency", row.adjacency), ("laplacian", row.laplacian)):
                _print(
                    f"{_words(row.key, '')},{column},{'yes' if cell.ok else 'no'},"
                    f"{_words(cell.computed)},{_words(cell.reference)}"
                )
        return 0
    for title in titles:
        _print(title)
    _print(f"{key_header} | adjacency (computed) | laplacian (computed)")
    for row in rows:
        cells = []
        for cell in (row.adjacency, row.laplacian):
            text = _words(cell.computed)
            if not cell.ok:
                text += f" [ERRATUM vs reference {_words(cell.reference)}]"
            cells.append(text)
        _print(f"{_words(row.key, '')} | {cells[0]} | {cells[1]}")
    for row in rows:
        for cell in (row.adjacency, row.laplacian):
            if cell.note:
                _print(f"note ({_words(row.key, '')}): {cell.note}")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"range {text!r} must look like LO:HI")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range {text!r} must be integer LO:HI") from exc


def _cmd_verify(args) -> int:
    kinds = tuple(args.kinds.split(",")) if args.kinds != "all" else CASE_KINDS
    reports = sweep(args.m_range, args.n_range, kinds=kinds, tol=args.tol)
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        _print(reports_to_json(reports))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            _print(
                f"{r.family}-{r.kind} m={r.m} n={r.n} "
                f"dev={r.max_abs_deviation:.3e} trace={r.trace_residual:.3e} "
                f"psd={'ok' if r.psd_ok else 'NO'} "
                f"quotient={'ok' if r.quotient_containment_ok else 'NO'} {status}"
            )
        _print(f"{len(reports) - len(failed)}/{len(reports)} cases passed")
    return EXIT_VERIFY_FAILED if failed else 0


def _cmd_export(args) -> int:
    graph = FAMILIES[args.family].graph(args.m, args.n)
    if args.format == "dot":
        text = to_dot(graph, name=f"{args.family}_{args.m}_{args.n}")
    else:
        text = to_edge_list(graph)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:  # an unwritable path is a bad parameter, exit 3
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        _print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanspectra",
        description="Spectra of generalized fan graphs and hub-matched fan pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("family", choices=list(FAMILIES))
        p.add_argument("m", type=int)
        p.add_argument("n", type=int)

    def add_tols(p):
        width = f"absolute group width (default {GROUPING_SCALE:g} x max(1, max |value|))"
        p.add_argument("--grouping-tol", type=float, default=None, help=width)
        stop = "Jacobi stopping share of the initial off-diagonal norm, at most %(default)g"
        p.add_argument("--convergence-tol", type=float, default=DEFAULT_CONVERGENCE_TOL, help=stop)

    p = sub.add_parser("spectrum", help="spectrum of a family matrix")
    add_family_args(p)
    p.add_argument("kind", choices=KIND_CHOICES)
    p.add_argument("--mode", choices=["closed", "numeric", "both"], default="both")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--t", type=float, default=None, help="blend parameter for generalized-distance")
    add_tols(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("matrix", help="dump a family matrix")
    add_family_args(p)
    p.add_argument("kind", choices=KIND_CHOICES)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("quotient", help="canonical equitable quotient and its eigenvalues")
    add_family_args(p)
    p.add_argument("kind", choices=list(dict.fromkeys(kind for _, kind in CASES.values())))
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_tols(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("tables", help="recompute a bundled reference table")
    p.add_argument("which", type=int, choices=[1, 2])
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="closed form vs numeric sweep")
    p.add_argument("--m-range", type=_parse_range, default=(2, 12))
    p.add_argument("--n-range", type=_parse_range, default=(2, 12))
    p.add_argument(
        "--kinds",
        default="all",
        help="comma-separated subset of: " + ",".join(CASE_KINDS),
    )
    p.add_argument("--tol", type=float, default=DEFAULT_CASE_TOL)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="write a graph as an edge list or DOT")
    add_family_args(p)
    p.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_export)

    return parser


# the first match decides: UnsupportedCombination and DisconnectedGraphError are ValueErrors
_EXIT_CODES = (
    (UnsupportedCombination, EXIT_UNSUPPORTED),
    (DisconnectedGraphError, EXIT_DISCONNECTED),
    (JacobiConvergenceError, EXIT_NO_CONVERGENCE),
    (ValueError, EXIT_BAD_PARAMETER),
)


def _check_args(args) -> None:
    """Reject sizes above the cap, bad tolerances in every mode and a blend parameter
    outside (0, 1) for every kind; the lower size bounds stay with the graph builders."""
    for name in ("m", "n"):
        value = getattr(args, name, None)
        if value is not None and value > MAX_SWEEP_PARAM:
            raise ValueError(f"{name}={value} exceeds the maximum of {MAX_SWEEP_PARAM}")
    if hasattr(args, "convergence_tol"):
        _check_convergence_tol(args.convergence_tol)
    if getattr(args, "grouping_tol", None) is not None:
        _check_tol("grouping_tol", args.grouping_tol, zero_ok=True)
    if getattr(args, "t", None) is not None:
        _check_blend(args.t)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        status = args.func(args)
    except (ValueError, JacobiConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))
    _print(end="", flush=True)  # a closed pipe is met here, not at shutdown
    return status


if __name__ == "__main__":
    sys.exit(main())
