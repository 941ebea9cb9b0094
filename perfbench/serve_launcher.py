"""Start ``repro serve`` through the CLI entry point, optionally traced.

``python perfbench/serve_launcher.py [--spans-out FILE] serve ARGS...``, run
from the repository root with ``src`` on ``PYTHONPATH``.  With
``--spans-out`` the layer wrappers of :mod:`tracer` are installed before the
server starts, every span carries the request's trace id, and the spans are
written to FILE after the server has shut down.
"""

from __future__ import annotations

import sys
from typing import List


def main(argv: List[str]) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    tracer = None
    if spans_out:
        from repro.telemetry.trace import current_trace_id
        from tracer import Tracer, install

        tracer = Tracer(trace_id=current_trace_id)
        install(tracer)
    code = cli_main(argv)
    if tracer is not None:
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
