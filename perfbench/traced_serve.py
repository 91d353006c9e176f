"""Run ``orm-validate serve`` with the layer tracer installed.

Usage: ``python perfbench/traced_serve.py TRACE_DIR serve [serve flags...]``

The server is the unmodified CLI entry point (:func:`repro.tool.cli.main`);
only the wrappers of :mod:`tracer` are added around it, in the router and
in every worker it spawns.  ``SIGUSR1`` makes a process write its spans to
``TRACE_DIR``.
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer.install(trace_dir, role="router")
    from repro.tool.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
