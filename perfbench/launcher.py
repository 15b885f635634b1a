"""Start the sampling service the way users do, optionally traced.

``python3 -m perfbench.launcher [--trace-dir DIR] -- SIEVE_REPRO_ARGS...``
runs ``sieve-repro SIEVE_REPRO_ARGS...`` in this process. With
``--trace-dir`` it first installs the layer wrappers; ``SIGUSR1`` then
notes the time (the load generator sends one at each edge of its timed
window), and after the server stops on ``SIGINT`` the spans are written
with the number of program span records that ended inside the window.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from repro.cli import main as cli_main

    # A parent that ignores SIGINT (a background job) passes that on,
    # and the server would never stop; Ctrl-C is how users stop it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if args.trace_dir is not None:
        from perfbench.tracing import install

        tracer = install(args.trace_dir)
        signal.signal(signal.SIGUSR1, lambda *_: tracer.mark())
    code = cli_main(cli_args)
    if tracer is not None:
        tracer.flush({"program_spans": _program_spans(tracer.marks)})
    return code


def _program_spans(marks: list[float]) -> int:
    """Program span records (adopted child spans too) ending in the window."""
    if len(marks) < 2:
        return 0
    from repro.observability import spans

    w0, w1 = marks[0], marks[-1]
    return sum(w0 <= r.start_s + r.wall_s <= w1 for r in spans.records())


if __name__ == "__main__":
    sys.exit(main())
