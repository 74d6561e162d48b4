"""Golden CLI output: every command, format, kind and mode, for fan and nc.

Each entry of ``golden_cli.json`` is one command line with its exit code,
its stdout and its stderr.  Only output that does not depend on the
eigensolver is pinned: closed-form spectra, matrices, exports, the
reference tables, quotient block sizes and matrices, the case list of a
verify sweep, every exit code, and the messages of the error paths.
Numeric eigenvalues, deviations and containment verdicts are masked, so
a change of solver does not change this file.

Regenerate (only when the output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fanspectra.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SIZES = {"fan": ((1, 4), (3, 2)), "nc": ((2, 3), (3, 2))}
KINDS = (
    "adjacency",
    "laplacian",
    "distance",
    "transmission",
    "distance-laplacian",
    "distance-signless-laplacian",
    "generalized-distance",
)
CLOSED_KINDS = ("laplacian", "distance-laplacian")

ERROR_COMMANDS = (
    # exit 2: argparse usage errors
    "spectrum wheel 2 3 laplacian",
    "spectrum fan 2 3 no-such-kind",
    "spectrum fan x 3 laplacian",
    "spectrum fan 2 3 laplacian --mode exact",
    "matrix fan 2",
    "quotient fan 2 3 adjacency",
    "tables 3",
    "verify --m-range 2-5",
    "verify --n-range a:b",
    "export fan 2 3 --format svg",
    # exit 3: invalid parameter values
    "spectrum fan 0 4 laplacian",
    "spectrum nc 1 4 laplacian --mode closed",
    "spectrum fan 2 3 laplacian --mode numeric --grouping-tol nan",
    "spectrum fan 2 3 laplacian --mode numeric --convergence-tol 0",
    "spectrum fan 2 3 generalized-distance --mode numeric",
    "matrix nc 2 1 adjacency",
    "matrix fan 2 3 generalized-distance",
    "matrix fan 2 3 generalized-distance --t 1.5",
    "quotient nc 3 1 laplacian",
    "quotient nc 3 4 laplacian --convergence-tol inf",
    "quotient fan 2 3 distance-laplacian --grouping-tol=-1",
    "verify --m-range 0:3",
    "verify --m-range 3:2",
    "verify --n-range 2:500",
    "verify --kinds fan-adjacency",
    "export nc 1 3",
    # exit 4: no closed form for the kind
    "spectrum fan 2 3 adjacency --mode closed",
    "spectrum nc 2 3 generalized-distance --mode closed --t 0.5 --format json",
)


def commands() -> list[list[str]]:
    """Every command line the golden file covers, in a fixed order."""
    out = []
    for family, sizes in SIZES.items():
        for m, n in sizes:
            graph = [family, str(m), str(n)]
            for kind in KINDS:
                blend = ["--t", "0.25"] if kind == "generalized-distance" else []
                for mode in ("closed", "numeric", "both"):
                    for fmt in ("text", "csv", "json"):
                        out.append(["spectrum", *graph, kind, "--mode", mode, "--format", fmt, *blend])
                for fmt in ("text", "csv", "json"):
                    out.append(["matrix", *graph, kind, "--format", fmt, *blend])
            out.append(["spectrum", *graph, "laplacian"])  # default mode and format
            for kind in CLOSED_KINDS:
                for fmt in ("text", "json"):
                    out.append(["quotient", *graph, kind, "--format", fmt])
            for fmt in ("edgelist", "dot"):
                out.append(["export", *graph, "--format", fmt])
            out.append(["export", *graph])
    for which in ("1", "2"):
        for fmt in ("text", "csv", "json"):
            out.append(["tables", which, "--format", fmt])
    out += [
        ["verify", "--m-range", "1:3", "--n-range", "2:3"],
        ["verify", "--m-range", "2:3", "--n-range", "1:2", "--format", "json"],
        ["verify", "--m-range", "2:2", "--n-range", "2:4", "--kinds", "nc-laplacian,fan-distance-laplacian"],
        ["verify", "--m-range", "2:2", "--n-range", "2:2", "--tol", "1e-300"],
    ]
    out += [line.split() for line in ERROR_COMMANDS]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _pinned_stdout(argv: list[str], code: int, stdout: str):
    """The part of stdout that does not depend on the eigensolver."""
    command = argv[0]
    fmt = _option(argv, "--format", "text")
    if code != 0 and command != "verify":
        return stdout
    if command == "spectrum" and _option(argv, "--mode", "both") != "closed":
        both = _option(argv, "--mode", "both") == "both"
        if fmt == "json":
            payload = json.loads(stdout)
            payload.pop("numeric")
            payload.pop("max_abs_deviation", None)
            return payload
        lines = stdout.splitlines()
        if fmt == "csv":  # in both mode the rows start with the closed form's pairs
            return [lines[0]] + ([",".join(line.split(",")[:2]) for line in lines[1:]] if both else [])
        pinned = lines[:2]
        if both:
            pinned += [" ".join(line.split()[:2]) for line in lines[2:] if line.startswith(" ")]
            pinned += [line for line in lines if line.startswith("note: ")]
        return pinned
    if command == "quotient":
        if fmt == "json":
            payload = json.loads(stdout)
            payload.pop("eigenvalues")
            payload.pop("contained_in_full_spectrum")
            return payload
        lines = stdout.splitlines()
        return lines[: lines.index("eigenvalues:")]
    if command == "verify":
        if fmt == "json":
            keep = ("family", "m", "n", "kind", "closed_form", "errata_flags")
            return [{key: report[key] for key in keep} for report in json.loads(stdout)]
        return [" ".join(line.split()[:3]) for line in stdout.splitlines()[:-1]]
    return stdout


def _pinned_stderr(code: int, stderr: str):
    if code == 2:  # argparse: the usage text wraps with the terminal, so keep the error's head
        return stderr.splitlines()[-1].split(": ")[:3]
    return stderr


def pinned(argv: list[str]) -> dict:
    code, stdout, stderr = run(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": _pinned_stdout(argv, code, stdout),
        "stderr": _pinned_stderr(code, stderr),
    }


def _load() -> dict:
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


GOLDEN_ENTRIES = _load() if GOLDEN.exists() else {}


def test_golden_file_covers_every_command():
    assert list(GOLDEN_ENTRIES) == [" ".join(argv) for argv in commands()]


@pytest.mark.parametrize("line", list(GOLDEN_ENTRIES))
def test_cli_output_matches_golden(line):
    expected = GOLDEN_ENTRIES[line]
    assert pinned(expected["argv"]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([pinned(argv) for argv in commands()], indent=1) + "\n")
