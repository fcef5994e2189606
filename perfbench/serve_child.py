"""Start ``repro serve`` with spans installed, for the traced run.

    python3 perfbench/serve_child.py --store PATH --trace-dir DIR

Installs the layer wrappers of :mod:`spans`, then makes the
``run_server`` call ``repro serve --port 0 --store PATH`` makes (default
``batch`` backend, 5 ms batch window), and writes the spans to DIR when
the server stops (SIGINT).
"""

from __future__ import annotations

import argparse
import sys

from common import use_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args(argv)
    use_program()
    from spans import Tracer, install

    tracer = Tracer(args.trace_dir)
    install(tracer)
    from repro.serve.service import ServeConfig, run_server

    code = run_server(ServeConfig(port=0, store=args.store))
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
