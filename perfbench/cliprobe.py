"""`python -m powersdim.cli` with spans, for the traced run of the cli workload.

Usage: python cliprobe.py TRACE_FILE <cli arguments...>

Imports powersdim.cli, wraps the library functions as tracing.py does,
runs cli.main under a top-level ``cli.main`` span and writes the process's
spans and per-name self times to TRACE_FILE before exiting with main's
exit code.
"""

import json
import sys

import powersdim.cli as cli
from tracing import END, START, Tracer, summarize


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(idx)  # a failed process is counted by its exit code
        tracer.remove()
        summary = summarize(tracer.spans)
        main_span = tracer.spans[idx]
        with open(trace_file, "w") as fh:
            json.dump({"main_ms": (main_span[END] - main_span[START]) * 1000.0,
                       "self_ms": summary["self_ms"], "calls": summary["calls"],
                       "errors": summary["errors"], "counts": tracer.counts,
                       "sizes": tracer.drain_sizes(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
