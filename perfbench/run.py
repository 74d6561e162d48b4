"""fanspectra benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it imports fanspectra from the
checkout's ``src/`` and refuses to run without it.  Workloads (see
``workloads.py`` and BENCHMARK.json for why each exists):

* ``sweep``: one op is one ``verify_case`` of the 484-case acceptance grid.
* ``matrix-family``: one op builds a large graph's 7 matrices, quotients
  and closed forms, with no eigensolve.
* ``joins``: one op checks both join maps on a random pair of order <= 8.
* ``cli-cold``: one op is one fresh ``python -m fanspectra`` process.

Every workload is a closed loop with one client on one thread.  BLAS is
pinned to one thread here and in every child process.  A run executes
whole rounds (see ``workloads.py``) until ``--seconds`` have passed and at
least MIN_OPS ops ran, after two untimed warm-up ops.  Each op is checked
outside its timed window.

``--trace 0`` reports the end-to-end metrics: ops per second of op time,
the op latency median and 90th percentile over successful ops, the
peak memory of the largest ops (``op_peak_mb``), and ``setup_s``, the median
over SETUP_PROBES fresh interpreters of the time to import fanspectra and
build the inputs.  Times are calibrated against a reference of
``reference.py`` (a kernel for in-process ops, a fresh interpreter for
CLI children and set-up probes), timed before every op and probe, so
that they do not follow the speed swings of a shared machine; the
uncalibrated figures go on the line before the result.

``--trace 1`` reports the per-layer metrics.  It runs the fewest whole
rounds that reach MIN_OPS ops twice: once untraced, and once under
``spans.SpanRecorder`` (inside the CLI children, for ``cli-cold``).
``trace.overhead_ratio`` is the calibrated time of the traced ops over
that of the untraced ones.  Span times are not calibrated.  Span metrics
never seen in a run read 0.

The line before the result holds the environment (Python and numpy
versions, nproc, git commit, line count of src/) and run details.  The
last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ONE_THREAD)  # before numpy loads; child processes inherit it

import reference  # noqa: E402  (loads numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "matrix-family", "joins", "cli-cold")

MIN_OPS = 100  # op_p90_ms needs at least ten ops beyond it
WARMUP_OPS = 2
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 60
ERROR_TOL = 1e-8


def percentile(values, fraction: float) -> float:
    """Linear interpolation between the closest ranks of the sorted values."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


@dataclass
class Tally:
    reference: reference.Reference
    durations: list[float] = field(default_factory=list)  # seconds, every op in order
    ok: list[bool] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)  # reference times around the ops
    failures: list[str] = field(default_factory=list)
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def calibrated(self) -> list[float]:
        return self.reference.calibrate(self.durations, self.samples)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_op(op, item, check, tally: Tally, recorder=None) -> None:
    """Sample the reference, time one op, then check its output outside
    the timed window.  An op or a check that raises counts as failed."""
    tally.samples.append(tally.reference.sample())
    error = None
    start = time.perf_counter()
    try:
        with recorder.span() if recorder else contextlib.nullcontext():
            output = op(item)
    except Exception as exc:
        error = _describe(exc)
    tally.durations.append(time.perf_counter() - start)
    if error is None:
        try:
            error = check(item, output)
        except Exception as exc:
            error = f"check raised {_describe(exc)}"
    tally.ok.append(error is None)
    if error is not None:
        tally.failures.append(f"{item!r}: {error}")


def measure(rounds, op, check, ref, *, seconds=0.0, round_count=None, recorder=None) -> Tally:
    """Run whole rounds, cycling through ``rounds``, with reference ``ref``.

    With ``round_count`` it runs exactly that many rounds; otherwise it
    stops at the first round boundary after ``seconds`` have passed and
    MIN_OPS ops ran.
    """
    tally = Tally(ref)
    began = time.perf_counter()
    for items in itertools.cycle(rounds):
        for item in items:
            run_op(op, item, check, tally, recorder)
        tally.rounds += 1
        if round_count is not None:
            if tally.rounds >= round_count:
                break
        elif time.perf_counter() - began >= seconds and tally.attempted >= MIN_OPS:
            break
    tally.samples.append(ref.sample())
    return tally


def op_peak_mb(workload, items) -> float:
    """Peak memory of the largest ops among ``items``, in MB, measured
    after the timed ops.

    In process: the peak of the memory that Python and numpy allocate
    (tracemalloc) during each op on the largest graph of the round; the
    tracing slows those ops many times over, so only they run under it.
    For cli-cold: the largest peak RSS among the round's CLI children,
    each read from that child's own rusage.
    """
    import workloads

    if not workload.in_process:
        return max(workloads.cli_peak_rss_kib(argv) for argv in items) / 1024.0
    largest = max(map(workload.order, items))
    peak = 0
    tracemalloc.start()
    try:
        for item in items:
            if workload.order(item) == largest:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                with contextlib.suppress(Exception):  # the timed pass counted any failure
                    workload.op(item)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    times = []
    samples = [reference.INTERPRETER.sample()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
        samples.append(reference.INTERPRETER.sample())
    return statistics.median(reference.INTERPRETER.calibrate(times, samples))


def op_times(durations: list[float], ok: list[bool]) -> dict:
    """Throughput over all ops' time, and latency percentiles of the successful ones."""
    ms = [1000.0 * d for d, good in zip(durations, ok) if good]
    return {
        "ops_per_s": len(ms) / sum(durations),
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": percentile(ms, 0.9),
    }


def probe_phases(records) -> dict:
    """Median cold-start phases of the traced CLI children, in ms."""
    if not records:
        return {}
    return {
        "cli.interp_ms": statistics.median(1000 * (r["start"] - r["spawned"]) for r in records),
        "cli.numpy_import_ms": statistics.median(1000 * (r["numpy"] - r["start"]) for r in records),
        "cli.pkg_import_ms": statistics.median(1000 * (r["package"] - r["numpy"]) for r in records),
        "cli.command_ms": statistics.median(1000 * r["command_s"] for r in records),
    }


def per_layer_metrics(summary: dict, layer_self: dict, unattributed: float, extra: dict) -> dict:
    wall = summary["wall_s"]
    spans_seen = summary["spans"]
    graphs_built = spans_seen.get("graphs.build", [0])[0]
    metrics = {
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "unattributed.share": unattributed / wall,
        "eigen.n3_sum": summary["n3_sum"],
        "eigen.solve_n_le_16.calls": summary["solve_small"][0],
        "eigen.solve_n_le_16.self_s": summary["solve_small"][1],
        "eigen.max_err_vs_lapack": summary["max_err_vs_lapack"],
        "verify.max_abs_deviation": summary["max_abs_deviation"],
        "matrices.distance_builds_per_graph": (
            spans_seen.get("matrices.distance", [0])[0] / graphs_built if graphs_built else 0.0
        ),
        **{f"{layer}.share": self_s / wall for layer, self_s in layer_self.items()},
        **extra,
    }
    for name, (calls, self_s) in spans_seen.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    return metrics


def select(metrics: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, with its units; unseen spans read 0."""
    chosen = {}
    for entry in declared:
        name = entry["name"]
        if name in metrics:
            value = metrics[name]
        elif name.endswith((".calls", ".self_s", "_ms")):
            value = 0
        else:
            raise KeyError(f"metric {name!r} was not measured")
        chosen[name] = {"value": value, "unit": entry["unit"]}
    return chosen


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fanspectra" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/fanspectra or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fanspectra

    if not Path(fanspectra.__file__).resolve().is_relative_to(SRC):
        print(f"error: fanspectra imported from {fanspectra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.build(args.seed)
    check = workload.make_check()

    ref = workload.reference
    warmup = Tally(ref)
    for item in rounds[0][:WARMUP_OPS]:
        run_op(workload.op, item, check, warmup)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    correct = True
    if args.trace == 0:
        measured = measure(rounds, workload.op, check, ref, seconds=args.seconds)
        tallies = [warmup, measured]
        info["ops"] = sum(measured.ok)
        if any(measured.ok):
            metrics = {
                **op_times(measured.calibrated(), measured.ok),
                "op_peak_mb": op_peak_mb(workload, rounds[0]),
                "setup_s": setup_seconds(args.workload, args.seed, workloads.child_env()),
            }
            metrics = select(metrics, declared["end_to_end"])
            info["uncalibrated"] = op_times(measured.durations, measured.ok)
        else:  # no latency to report; the result line still counts the failures
            metrics = {}
        info["reference_mean_s"] = statistics.fmean(measured.samples)
    else:
        round_count = math.ceil(MIN_OPS / len(rounds[0]))
        untraced = measure(rounds, workload.op, check, ref, round_count=round_count)
        if workload.in_process:
            recorder = spans.SpanRecorder()
            with recorder.installed():
                traced = measure(rounds, workload.op, check, ref, round_count=round_count, recorder=recorder)
            summary = recorder.summary()
            layer_self, unattributed = spans.layer_times(summary)
            gap = summary["wall_s"] - sum(layer_self.values()) - unattributed
            correct = abs(gap) <= 1e-9 * summary["wall_s"]
            phases = {}
        else:
            records: list = []
            probe = lambda argv: workloads.cli_probe_op(argv, records)  # noqa: E731
            traced = measure(rounds, probe, check, ref, round_count=round_count)
            summary = spans.empty_summary()
            for record in records:
                spans.merge_summaries(summary, record["summary"])
            summary["wall_s"] = sum(traced.durations)  # spawn to exit, as the parent saw it
            layer_self, _ = spans.layer_times(summary)
            unattributed = summary["wall_s"] - sum(layer_self.values())
            phases = probe_phases(records)
        correct = correct and max(summary["max_err_vs_lapack"], summary["max_abs_deviation"]) <= ERROR_TOL
        tallies = [warmup, untraced, traced]
        extra = {
            **phases,
            "fail_ratio": sum(len(t.failures) for t in tallies) / sum(t.attempted for t in tallies),
            "trace.overhead_ratio": sum(traced.calibrated()) / sum(untraced.calibrated()),
            "trace.ops": traced.attempted,
        }
        metrics = select(per_layer_metrics(summary, layer_self, unattributed, extra), declared["per_layer"])
        info["largest_self_time"] = max(
            summary["spans"], key=lambda name: summary["spans"][name][1], default=None
        )
        info["spans"] = summary["spans"]

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    for failure in failures[:10]:
        print(f"failed op: {failure}", file=sys.stderr)
    info["rounds"] = [t.rounds for t in tallies[1:]]
    info["environment"] = environment()
    print(json.dumps(info))
    result = {
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
