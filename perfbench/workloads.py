"""The benchmark's four workloads: seeded inputs, one op, and its check.

Each workload turns a seed into *rounds*: lists of op inputs whose mix
of sizes and commands is the same in every round and for every seed,
so that a run's throughput does not depend on which seed it got.  The
seed decides the order of the ops and every free parameter (random
graphs, blend parameters, command arguments).  A run executes whole
rounds only.

Every op is checked outside its timed window; a check returns an error
message, or None when the output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from fanspectra import cli, closed_forms, eigen, graphs, matrices, quotient, verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "cli_probe.py"

CASE_TOL = 1e-8  # the acceptance tolerance of the verify sweep and the join checks
CHILD_TIMEOUT_S = 60

SWEEP_RANGE = range(2, 13)
# Large graphs (order 72 to 136, within the verify sweep's parameter cap of
# 64) whose ops all cost about the same: a pair graph has twice a fan's
# vertices, so it gets smaller m and n.  Similar costs keep the latency
# percentiles on many ops rather than on the few largest.
FAMILY_SIZES = {"fan": (36, 41, 46, 51, 56), "nc": (22, 25, 28, 31, 34)}
FAMILY_ROUNDS = 8
JOIN_MAX_ORDER = 8
JOIN_ROUNDS = 32
CLI_ROUNDS = 24
CLI_MAX_PARAM = 5
CLOSED_KINDS = ("laplacian", "distance-laplacian")


def child_env() -> dict[str, str]:
    """Environment for the benchmark's child processes: this checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- sweep -----------------------------------------------------------------


def build_sweep(seed: int) -> list[list]:
    """One round: every acceptance case over 2 <= m, n <= 12, in seeded order."""
    cases = []
    for m in SWEEP_RANGE:
        for n in SWEEP_RANGE:
            for case_kind in verify.CASE_KINDS:
                family, _, kind = case_kind.partition("-")
                cases.append((family, m, n, kind))
    random.Random(seed).shuffle(cases)
    return [cases]


def sweep_op(case):
    family, m, n, kind = case
    return verify.verify_case(family, m, n, kind, tol=CASE_TOL)


def check_sweep(case, report) -> str | None:
    if (report.family, report.m, report.n, report.kind) != case:
        return f"report is for another case: {report.case_tag} m={report.m} n={report.n}"
    if not report.passed:
        return (
            f"verify failed: deviation {report.max_abs_deviation:.3e}, "
            f"trace {report.trace_residual:.3e}, psd {report.psd_ok}, "
            f"quotient {report.quotient_containment_ok}"
        )
    return None


# --- matrix-family -----------------------------------------------------------


def build_matrix_family(seed: int) -> list[list]:
    """Rounds of each family at every (m, n) from its FAMILY_SIZES, with seeded blend t."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(FAMILY_ROUNDS):
        cells = [
            (family, m, n, rng.uniform(0.05, 0.95))
            for family, sizes in FAMILY_SIZES.items()
            for m in sizes
            for n in sizes
        ]
        rng.shuffle(cells)
        rounds.append(cells)
    return rounds


def _family_pieces(family: str):
    if family == "nc":
        return (
            graphs.nc_graph,
            quotient.nc_partition,
            {
                "laplacian": closed_forms.nc_laplacian_spectrum,
                "distance-laplacian": closed_forms.nc_distance_laplacian_spectrum,
            },
        )
    return (
        graphs.generalized_fan,
        quotient.fan_partition,
        {
            "laplacian": closed_forms.fan_laplacian_spectrum,
            "distance-laplacian": closed_forms.fan_distance_laplacian_spectrum,
        },
    )


def matrix_family_op(cell):
    """Graph, all 7 matrix kinds, and for both Laplacian kinds the canonical
    quotient, its equitability check and the closed form.  No eigensolve."""
    family, m, n, t = cell
    build_graph, partition_of, forms = _family_pieces(family)
    graph = build_graph(m, n)
    built = {kind.value: matrices.build_matrix(graph, kind, t=t) for kind in matrices.MatrixKind}
    partition = partition_of(m, n)
    laplacians = {}
    for kind, form in forms.items():
        matrix = built[kind]
        laplacians[kind] = (
            quotient.quotient_matrix(matrix, partition),
            quotient.is_equitable(matrix, partition),
            form(m, n),
        )
    return graph.vertex_count, built, laplacians


def check_matrix_family(cell, output) -> str | None:
    family, m, n, _ = cell
    order, built, laplacians = output
    expected = graph_order(family, m, n)
    if order != expected:
        return f"graph has {order} vertices, expected {expected}"
    for kind, matrix in built.items():
        if matrix.shape != (order, order) or not np.array_equal(matrix, matrix.T):
            return f"{kind} matrix is not symmetric of order {order}"
    for kind, (_, equitable, spectrum) in laplacians.items():
        matrix = built[kind]
        if float(np.max(np.abs(matrix.sum(axis=1)))) != 0.0:
            return f"{kind} has a nonzero row sum"
        if spectrum.order != order:
            return f"{kind} closed form has {spectrum.order} values for {order} vertices"
        trace = float(np.trace(matrix))
        if abs(spectrum.total() - trace) > CASE_TOL * max(1.0, abs(trace)):
            return f"{kind} closed form sums to {spectrum.total()!r}, trace is {trace!r}"
        if not equitable:
            return f"{kind} canonical partition is not equitable"
    return None


# --- joins -------------------------------------------------------------------


def _random_edges(order: int, rng: random.Random) -> tuple:
    """Each pair is an edge with probability 1/2."""
    return tuple(
        (u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < 0.5
    )


def build_joins(seed: int) -> list[list]:
    """Rounds of one random pair per (n1, n2) in 1..8 x 1..8, in seeded order."""
    rng = random.Random(seed)
    rounds = []
    orders = range(1, JOIN_MAX_ORDER + 1)
    for _ in range(JOIN_ROUNDS):
        pairs = [
            (n1, _random_edges(n1, rng), n2, _random_edges(n2, rng))
            for n1 in orders
            for n2 in orders
        ]
        rng.shuffle(pairs)
        rounds.append(pairs)
    return rounds


def join_op(pair):
    """Join a pair, solve four Laplacians of order <= 16, evaluate both join maps."""
    n1, edges1, n2, edges2 = pair
    g1 = graphs.make_graph(n1, edges1)
    g2 = graphs.make_graph(n2, edges2)
    spec1 = eigen.symmetric_eigenvalues(matrices.laplacian_matrix(g1))
    spec2 = eigen.symmetric_eigenvalues(matrices.laplacian_matrix(g2))
    joined = graphs.join(g1, g2)
    laplacian = eigen.symmetric_eigenvalues(matrices.laplacian_matrix(joined))
    distance_laplacian = eigen.symmetric_eigenvalues(matrices.distance_laplacian(joined))
    return (
        verify.compare_spectra(
            closed_forms.join_laplacian_spectrum(spec1, n1, spec2, n2), laplacian
        ),
        verify.compare_spectra(
            closed_forms.join_distance_laplacian_spectrum(spec1, n1, spec2, n2),
            distance_laplacian,
        ),
    )


def check_join(pair, deviations) -> str | None:
    if max(deviations) > CASE_TOL:
        return f"join map deviations {deviations[0]:.3e}, {deviations[1]:.3e}"
    return None


# --- cli-cold ------------------------------------------------------------------


def build_cli(seed: int) -> list[list]:
    """Rounds of the six command shapes, each with seeded family, sizes and kind."""
    rng = random.Random(seed)
    kinds = [kind.value for kind in matrices.MatrixKind]

    def graph_args():
        family = rng.choice(("fan", "nc"))
        return [family, str(rng.randint(2, CLI_MAX_PARAM)), str(rng.randint(2, CLI_MAX_PARAM))]

    rounds = []
    for _ in range(CLI_ROUNDS):
        matrix_kind = rng.choice(kinds)
        blend = ["--t", f"{rng.uniform(0.05, 0.95):.3f}"] if matrix_kind == "generalized-distance" else []
        commands = [
            ("spectrum", *graph_args(), rng.choice(CLOSED_KINDS)),
            ("spectrum", *graph_args(), rng.choice(CLOSED_KINDS), "--format", "json"),
            ("quotient", *graph_args(), rng.choice(CLOSED_KINDS)),
            ("tables", str(rng.randint(1, 2))),
            ("matrix", *graph_args(), matrix_kind, "--format", "csv", *blend),
            ("export", *graph_args(), "--format", "dot"),
        ]
        rng.shuffle(commands)
        rounds.append(commands)
    return rounds


def cli_op(argv):
    """One fresh ``python -m fanspectra`` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "fanspectra", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cli_peak_rss_kib(argv) -> int:
    """Peak RSS of one ``python -m fanspectra`` child, from the child's own
    rusage, so that no other child of the benchmark counts."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "fanspectra", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return usage.ru_maxrss  # KiB on Linux


def cli_probe_op(argv, records: list):
    """A fresh process that times its own imports and traces the command.

    The probe's last stderr line is a JSON record; its ``spawned`` field
    is this process's clock just before the spawn.  perf_counter is
    CLOCK_MONOTONIC on Linux, which is shared by all processes.
    """
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE), *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    record["spawned"] = spawned
    records.append(record)
    return proc.returncode, proc.stdout


class CliCheck:
    """Compares a child's exit code and stdout with in-process ``cli.main``."""

    def __init__(self):
        self._expected: dict[tuple, tuple[int, str]] = {}

    def expected(self, argv: tuple) -> tuple[int, str]:
        if argv not in self._expected:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
            self._expected[argv] = (code, buffer.getvalue())
        return self._expected[argv]

    def __call__(self, argv, output) -> str | None:
        code, stdout = output
        expected_code, expected_stdout = self.expected(tuple(argv))
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if stdout != expected_stdout:
            return "stdout differs from in-process cli.main"
        return None


# --- registry ----------------------------------------------------------------


def graph_order(family: str, m: int, n: int) -> int:
    return (m + n) * (2 if family == "nc" else 1)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[list]]
    op: Callable
    make_check: Callable[[], Callable]
    order: Callable | None = None  # vertices of an in-process op's largest graph
    in_process: bool = True

    @property
    def reference(self) -> reference.Reference:
        return reference.KERNEL if self.in_process else reference.INTERPRETER


WORKLOADS = {
    "sweep": Workload(build_sweep, sweep_op, lambda: check_sweep, lambda case: graph_order(*case[:3])),
    "matrix-family": Workload(
        build_matrix_family, matrix_family_op, lambda: check_matrix_family, lambda cell: graph_order(*cell[:3])
    ),
    "joins": Workload(build_joins, join_op, lambda: check_join, lambda pair: pair[0] + pair[2]),
    "cli-cold": Workload(build_cli, cli_op, CliCheck, in_process=False),
}
