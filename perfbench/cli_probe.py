"""Traced cold start of one CLI command; the cli-cold workload's traced op.

    python3 perfbench/cli_probe.py <fanspectra arguments...>

Behaves like ``python -m fanspectra <arguments>`` on stdout and in its
exit code.  As the last line of stderr it writes one JSON record: clock
readings at start, after importing numpy and after importing fanspectra,
the command's own duration, and the span summary of the command.  The
parent supplies src/ on PYTHONPATH.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

import numpy  # noqa: E402,F401

T_NUMPY = time.perf_counter()

import fanspectra.cli  # noqa: E402

T_PACKAGE = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from spans import SpanRecorder  # noqa: E402


def main() -> int:
    recorder = SpanRecorder()
    buffer = io.StringIO()
    with recorder.installed():
        began = time.perf_counter()
        with recorder.span(), contextlib.redirect_stdout(buffer):
            code = fanspectra.cli.main(sys.argv[1:])
        command_s = time.perf_counter() - began
    sys.stdout.write(buffer.getvalue())
    record = {
        "start": T_START,
        "numpy": T_NUMPY,
        "package": T_PACKAGE,
        "command_s": command_s,
        "summary": recorder.summary(),
    }
    print(json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
