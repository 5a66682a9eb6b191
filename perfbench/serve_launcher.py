"""Start the query server with the layer tracer installed.

Usage (the engine on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py SPANS.json -- --load x.xml --serve

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  SIGUSR1
marks the start of the measured phase; on SIGINT the CLI shuts the
server down and the spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from perfbench import layers
    from repro import cli

    tracer = layers.install(layers.Tracer(), serve=True)
    signal.signal(signal.SIGUSR1,
                  lambda _signum, _frame: layers.start_run(tracer))
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path,
                    shred_cache=layers.shred_cache_delta(tracer))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
