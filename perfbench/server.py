"""Server process for serve-mix: ``repro serve --workers 2`` as built by
the CLI, optionally traced.

Usage::

    python3 perfbench/server.py [--trace-dump PATH]

With ``--trace-dump`` the serve tier and every layer below it are
wrapped (inactive) before the broker starts. SIGUSR1 resets and starts
collection; SIGUSR2 stops it and writes the snapshot to PATH as JSON.
SIGINT or SIGTERM shuts the server down as Ctrl-C would, closing the
worker pool (the handlers are installed explicitly: a parent started in
the background may have left SIGINT ignored).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dump", default=None)
    args = parser.parse_args()

    from repro import cli

    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.trace_dump:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(server=True)

        def start(signum, frame):
            tracer.reset()
            tracer.active = True

        def stop(signum, frame):
            tracer.active = False
            tmp = args.trace_dump + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(tracer.snapshot(), handle)
            os.replace(tmp, args.trace_dump)

        signal.signal(signal.SIGUSR1, start)
        signal.signal(signal.SIGUSR2, stop)
    return cli.main(["serve", "--port", "0", "--workers", "2"])


if __name__ == "__main__":
    sys.exit(main())
