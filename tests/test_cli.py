"""CLI behavior: rendering, determinism, exit codes, file export."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanspectra
from fanspectra.cli import KIND_CHOICES, build_parser, main
from fanspectra.eigen import JacobiConvergenceError
from fanspectra.verify import CASES, verify_case


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_closed_fan_1_4(self, capsys):
        code, out, err = run(capsys, "spectrum", "fan", "1", "4", "laplacian", "--mode", "closed")
        assert code == 0 and not err
        for token in ("1.58579", "4.41421", "5", "3", "0"):
            assert token in out

    def test_both_mode_reports_deviation(self, capsys):
        code, out, _ = run(capsys, "spectrum", "nc", "2", "2", "distance-laplacian", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_deviation"] < 1e-8
        assert payload["closed"]["source"] == "nc-distance-laplacian"
        assert payload["closed"]["errata_notes"]

    def test_numeric_only_kind(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "fan", "2", "2", "adjacency", "--mode", "numeric", "--format", "json"
        )
        assert code == 0
        pairs = json.loads(out)["numeric"]["pairs"]
        assert sum(k for _, k in pairs) == 4

    def test_closed_mode_without_closed_form_is_unsupported(self, capsys):
        code, _, err = run(capsys, "spectrum", "fan", "2", "2", "adjacency", "--mode", "closed")
        assert code == 4
        assert "no closed form" in err

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, "spectrum", "fan", "0", "4", "laplacian")
        assert code == 3 and "error:" in err
        code, _, err = run(capsys, "spectrum", "nc", "1", "4", "laplacian")
        assert code == 3

    @pytest.mark.parametrize(
        "option",
        [
            ["--convergence-tol", "inf"],
            ["--convergence-tol", "nan"],
            ["--convergence-tol", "0"],
            ["--grouping-tol", "nan"],
            ["--grouping-tol=-1"],
            ["--grouping-tol", "inf"],
        ],
    )
    def test_invalid_tolerances_exit_3(self, capsys, option):
        code, out, err = run(
            capsys, "spectrum", "fan", "2", "3", "laplacian", "--mode", "numeric", *option
        )
        assert code == 3 and not out
        assert "tol must be finite" in err

    @pytest.mark.parametrize("tol", ["1.1e-12", "0.5", "0.9", "1", "2", "1e300"])
    def test_a_convergence_tol_above_the_default_exits_3(self, capsys, tol):
        # at 0.9 the values would print up to 0.40 off, and from 1 on the fan's degrees
        code, out, err = run(
            capsys, "spectrum", "fan", "2", "3", "laplacian", "--mode", "both",
            "--format", "csv", "--convergence-tol", tol,
        )
        assert (code, out, err) == (3, "", "error: convergence_tol must be at most 1e-12\n")

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--convergence-tol", "5"], "convergence_tol must be at most 1e-12"),
            (["--grouping-tol", "nan"], "grouping_tol must be finite and non-negative"),
        ],
    )
    def test_closed_mode_checks_the_tolerances_too(self, capsys, option, message):
        # closed mode runs no solver, yet a bad tolerance is a bad parameter in every mode
        code, out, err = run(
            capsys, "spectrum", "fan", "2", "3", "laplacian", "--mode", "closed", *option
        )
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "family, m, n, kind",
        [
            ("fan", 2, 3, "laplacian"),
            ("fan", 5, 7, "distance-laplacian"),
            ("nc", 3, 2, "laplacian"),
            ("nc", 8, 8, "distance-laplacian"),
        ],
    )
    def test_both_mode_reports_the_deviation_that_verify_reports(self, capsys, family, m, n, kind):
        # both compare the closed form with the solver's own values, not the grouped means
        code, out, _ = run(capsys, "spectrum", family, str(m), str(n), kind, "--format", "json")
        assert code == 0
        report = verify_case(family, m, n, kind)
        assert json.loads(out)["max_abs_deviation"] == report.max_abs_deviation

    def test_a_wide_grouping_tol_does_not_move_the_deviation(self, capsys):
        # one group of every value: against its mean a correct closed form was up to 3.2 off
        argv = ["spectrum", "fan", "2", "3", "laplacian", "--grouping-tol", "1e300", "--format"]
        code, out, _ = run(capsys, *argv, "json")
        assert code == 0 and json.loads(out)["max_abs_deviation"] < 1e-8
        code, out, _ = run(capsys, *argv, "csv")
        deviations = [float(row.split(",")[2]) for row in out.splitlines()[1:]]  # plain float reprs
        assert code == 0 and len(deviations) == 3 and max(deviations) < 1e-8

    def test_nc_31_63_adjacency_prints_its_two_close_simple_eigenvalues(self, capsys):
        # 4.8e-9 apart: a width of 1e-6 would print them as -1.997589730904993,2
        code, out, err = run(
            capsys, "spectrum", "nc", "31", "63", "adjacency", "--mode", "numeric", "--format", "csv"
        )
        assert code == 0 and not err
        rows = [row for row in out.splitlines() if row.startswith("-1.9975897")]
        assert [row.split(",")[1] for row in rows] == ["1", "1"]

    def test_generalized_distance_needs_t(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "fan", "2", "3", "generalized-distance", "--mode", "numeric"
        )
        assert code == 3
        code, out, _ = run(
            capsys,
            "spectrum", "fan", "2", "3", "generalized-distance",
            "--mode", "numeric", "--t", "0.5",
        )
        assert code == 0

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "fan", "2", "3", "no-such-kind"])
        assert exc.value.code == 2

    def test_output_is_deterministic(self, capsys):
        args = ("spectrum", "nc", "3", "4", "laplacian")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestMatrixCommand:
    def test_nc_distance_matrix_json(self, capsys):
        code, out, _ = run(capsys, "matrix", "nc", "2", "2", "distance", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 8
        d = np.array(payload["entries"]).reshape(8, 8)
        # cross-hub block: matched pair at distance 1, the rest at 3
        assert d[2, 4] == 1.0 and d[3, 5] == 1.0
        assert d[2, 5] == 3.0 and d[3, 4] == 3.0

    def test_csv_has_one_row_per_line(self, capsys):
        code, out, _ = run(capsys, "matrix", "fan", "1", "2", "laplacian", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestQuotientCommand:
    def test_nc_3_4_laplacian(self, capsys):
        code, out, _ = run(capsys, "quotient", "nc", "3", "4", "laplacian", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [
            [3, -3, 0, 0], [-4, 5, -1, 0], [0, -1, 5, -4], [0, 0, -3, 3]
        ]
        values = [v for v, _ in payload["eigenvalues"]]
        root = 57 ** 0.5
        np.testing.assert_allclose(
            values, sorted([0.0, (9 - root) / 2, 7.0, (9 + root) / 2]), atol=1e-9
        )
        assert payload["contained_in_full_spectrum"] is True

    def test_text_mode_displays_containment(self, capsys):
        code, out, _ = run(capsys, "quotient", "fan", "2", "3", "distance-laplacian")
        assert code == 0
        assert "contained in full spectrum" in out

    def test_invalid_grouping_tol_exits_3(self, capsys):
        code, out, err = run(capsys, "quotient", "nc", "3", "4", "laplacian", "--grouping-tol", "nan")
        assert code == 3 and not out
        assert "grouping_tol" in err

    @pytest.mark.parametrize("tol", ["0.5", "1", "2"])
    def test_a_convergence_tol_above_the_default_exits_3(self, capsys, tol):
        code, out, err = run(capsys, "quotient", "nc", "3", "3", "laplacian", "--convergence-tol", tol)
        assert (code, out, err) == (3, "", "error: convergence_tol must be at most 1e-12\n")

    def test_adjacency_has_no_canonical_quotient(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quotient", "fan", "2", "3", "adjacency"])
        assert exc.value.code == 2  # argparse rejects the choice

    def test_kinds_come_from_the_case_table_in_order(self, monkeypatch):
        monkeypatch.setattr("fanspectra.cli.CASES", {**CASES, "fan-distance": ("fan", "distance")})
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        kind = next(a for a in commands.choices["quotient"]._actions if a.dest == "kind")
        assert kind.choices == ["laplacian", "distance-laplacian", "distance"]


class TestTablesCommand:
    def test_table_1_flags_the_bad_row(self, capsys):
        code, out, _ = run(capsys, "tables", "1")
        assert code == 0
        assert "ERRATUM" in out
        assert "0.00 2.00 4.00 4.00" in out

    def test_table_2_json(self, capsys):
        code, out, _ = run(capsys, "tables", "2", "--format", "json")
        assert code == 0
        rows = {tuple(r["key"]): r for r in json.loads(out)}
        assert rows[(2, 2)]["laplacian"]["ok"] is False
        assert rows[(3, 4)]["laplacian"]["ok"] is True

    def test_table_2_text_documents_the_header_swap(self, capsys):
        code, out, _ = run(capsys, "tables", "2")
        assert code == 0
        assert "column headers are swapped" in out

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "tables", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "key,column,ok,computed,reference"
        assert len(lines) == 1 + 2 * 5


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m-range", "2:5", "--n-range", "2:5", "--kinds", "all"
        )
        assert code == 0
        assert "64/64 cases passed" in out

    def test_failures_set_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--m-range", "2:2", "--n-range", "2:2", "--tol", "1e-300",
        )
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--m-range", "2:2", "--n-range", "2:3",
            "--kinds", "nc-laplacian", "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--m-range", "2:2", "--n-range", "2:2", f"--tol={tol}")
        assert code == 3 and not out
        assert err == "error: tol must be finite and positive\n"

    def test_grid_outside_the_family_domain_exits_3(self, capsys):
        code, out, err = run(
            capsys, "verify", "--m-range", "1:1", "--n-range", "1:5", "--kinds", "nc-laplacian"
        )
        assert code == 3 and not out
        assert err == "error: no requested case lies in its family's domain (nc needs m, n >= 2)\n"

    def test_bad_range_syntax_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m-range", "2-5"])
        assert exc.value.code == 2


class TestExportCommand:
    def test_edge_list_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "fan", "1", "3")
        assert code == 0
        assert out == "0 1\n0 3\n1 2\n1 3\n2 3\n"

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "export", "nc", "2", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph nc_2_2 {")
        assert "2 -- 4;" in out

    def test_write_to_file(self, tmp_path, capsys):
        target = tmp_path / "graph.txt"
        code, out, _ = run(capsys, "export", "fan", "2", "2", "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "0 1\n0 2\n0 3\n1 2\n1 3\n"

    @pytest.mark.parametrize("target", ["missing/graph.dot", "."], ids=["no-parent", "directory"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, target):
        path = tmp_path / target
        code, out, err = run(capsys, "export", "nc", "2", "2", "-o", str(path))
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")


class TestNonConvergence:
    def test_a_tolerance_below_roundoff_exits_6(self, capsys):
        # the off-norm stalls near 9e-16 against a 4e-300 target: sweep 5 does not lower
        # it, and the solve stops there, long before SWEEP_CAP (5 sweeps under the
        # Haswell and Prescott OpenBLAS kernels too, 8 on numpy's SSE baseline)
        code, out, err = run(
            capsys, "spectrum", "fan", "2", "3", "laplacian", "--mode", "numeric",
            "--convergence-tol", "1e-300",
        )
        assert code == 6 and out == ""
        assert err.startswith("error: no convergence after 5 sweeps: off-diagonal norm ")
        assert " stalled (" in err and " before sweep 5), target 4.000e-300 (initial " in err

    # a replaced solver takes other commands to the same exit, without 100 sweeps each
    @pytest.mark.parametrize(
        "argv", [["spectrum", "nc", "2", "2", "laplacian"], ["quotient", "fan", "2", "3", "laplacian"]]
    )
    def test_solver_failure_exits_6(self, capsys, monkeypatch, argv):
        def no_convergence(matrix, convergence_tol):
            raise JacobiConvergenceError("no convergence in 100 sweeps")

        monkeypatch.setattr("fanspectra.cli.symmetric_eigenvalues", no_convergence)
        code, out, err = run(capsys, *argv)
        assert code == 6 and out == ""
        assert err == "error: no convergence in 100 sweeps\n"


class TestClosedStdout:
    @staticmethod
    def _close_after_10_bytes(*args):
        """Run the CLI, read 10 bytes of its stdout, close it; (status, stderr)."""
        src = str(Path(fanspectra.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        argv = [sys.executable, "-m", "fanspectra", *args]
        # the with block closes both pipes, even when an assertion fails
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            err = child.stderr.read()
            return child.wait(timeout=60), err

    def test_a_reader_that_stops_early_is_not_an_error(self):
        # 262,144 bytes of CSV: more than a pipe holds, so writes go on after the close
        assert self._close_after_10_bytes("matrix", "nc", "64", "64", "distance", "--format", "csv") == (0, b"")

    def test_a_failing_verify_still_exits_1(self):
        # every case fails at this tol, and the 147,830 bytes of JSON outgrow the pipe
        args = ("verify", "--m-range", "2:6", "--n-range", "2:6", "--tol", "1e-300", "--format", "json")
        assert self._close_after_10_bytes(*args) == (1, b"")


class TestParameterGuards:
    @pytest.fixture
    def no_graph_builds(self, monkeypatch):
        def unreachable(m, n):
            raise AssertionError(f"graph ({m}, {n}) built despite the size cap")

        monkeypatch.setattr("fanspectra.verify.generalized_fan", unreachable)
        monkeypatch.setattr("fanspectra.verify.nc_graph", unreachable)

    @pytest.mark.parametrize("m", [65, 10**9])
    @pytest.mark.parametrize(
        "command",
        [
            ["spectrum", "fan", "{m}", "3", "laplacian"],
            ["matrix", "nc", "{m}", "3", "distance"],
            ["quotient", "fan", "{m}", "3", "distance-laplacian"],
            ["export", "nc", "{m}", "3"],
            ["export", "fan", "3", "{m}"],
        ],
    )
    def test_sizes_above_the_cap_exit_3_before_any_graph(self, capsys, no_graph_builds, command, m):
        code, out, err = run(capsys, *(arg.format(m=m) for arg in command))
        name = "m" if command[2] == "{m}" else "n"
        assert code == 3 and not out
        assert err == f"error: {name}={m} exceeds the maximum of 64\n"

    def test_the_cap_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "export", "fan", "64", "1")
        assert code == 0 and len(out.splitlines()) == 64  # one edge per hub

    def test_cap_comes_first_and_lower_bounds_keep_their_messages(self, capsys):
        code, _, err = run(capsys, "spectrum", "fan", "0", "65", "laplacian")
        assert code == 3 and err == "error: n=65 exceeds the maximum of 64\n"
        code, _, err = run(capsys, "export", "nc", "1", "3")
        assert code == 3 and err == "error: nc_graph requires m >= 2 and n >= 2\n"

    @pytest.mark.parametrize("t", ["nan", "0", "5"])
    @pytest.mark.parametrize(
        "command",
        [
            ["spectrum", "fan", "2", "3", "adjacency", "--mode", "numeric"],
            ["spectrum", "nc", "2", "3", "laplacian", "--mode", "closed"],
            ["matrix", "fan", "2", "3", "distance"],
            ["matrix", "fan", "2", "3", "generalized-distance"],
        ],
    )
    def test_blend_parameter_is_checked_for_every_kind(self, capsys, command, t):
        code, out, err = run(capsys, *command, "--t", t)
        assert code == 3 and not out
        assert err == f"error: blend parameter t={float(t)} must satisfy 0 < t < 1\n"


# --- property test over the argument space, tiny sizes only -------------------

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}  # see the cli module docstring


def _choice(*valid):
    """One of the valid tokens, or now and then one that argparse rejects."""
    return st.sampled_from([*valid] * 4 + ["bogus"])


SIZE = st.integers(-1, 5).map(str)
FAMILY = (_choice("fan", "nc"), SIZE, SIZE)
FLOATS = st.sampled_from(["0.5", "0.25", "1e-9", "1e-300", "0", "1", "-1", "nan", "inf", "x"])
TOLS = {"grouping-tol": FLOATS, "convergence-tol": FLOATS}
RANGES = st.just("2") | st.tuples(SIZE, SIZE).map(":".join)
CASE_LISTS = st.sampled_from(
    ["all", "fan-laplacian", "nc-distance-laplacian,fan-laplacian", "fan-laplacian,nope"]
)


def _command(name, *positionals, **options):
    """argv: the command, its positionals in order (strategies or fixed
    strings), then any subset of the options."""
    positionals = [st.just(p) if isinstance(p, str) else p for p in positionals]
    drawn = st.tuples(st.tuples(*positionals), st.fixed_dictionaries({}, optional=options))
    return drawn.map(
        lambda d: [name, *d[0], *(token for key, value in d[1].items() for token in (f"--{key}", value))]
    )


ARGVS = st.one_of(
    _command(
        "spectrum",
        *FAMILY,
        _choice(*KIND_CHOICES),
        mode=_choice("closed", "numeric", "both"),
        format=_choice("text", "csv", "json"),
        t=FLOATS,
        **TOLS,
    ),
    _command("matrix", *FAMILY, _choice(*KIND_CHOICES), format=_choice("text", "csv", "json"), t=FLOATS),
    _command(
        "quotient",
        *FAMILY,
        _choice("laplacian", "distance-laplacian", "adjacency"),
        format=_choice("text", "json"),
        **TOLS,
    ),
    _command("export", *FAMILY, format=_choice("edgelist", "dot")),
    _command("tables", _choice("1", "2"), format=_choice("text", "csv", "json")),
    # both ranges always: the default grid runs up to 12
    _command(
        "verify",
        "--m-range",
        RANGES,
        "--n-range",
        RANGES,
        kinds=CASE_LISTS,
        tol=FLOATS,
        format=_choice("text", "json"),
    ),
)


def run_isolated(argv):
    """Exit code, stdout and stderr of one in-process run, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(argv=ARGVS)
@settings(max_examples=200, deadline=None)
def test_every_argv_exits_with_a_documented_code_and_repeats_its_output(argv):
    first = run_isolated(argv)
    assert first[0] in DOCUMENTED_EXIT_CODES, (argv, first)
    assert run_isolated(argv) == first, argv
