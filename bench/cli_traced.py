"""Traced CLI invocation: wraps qbound's public functions, then runs the CLI.

    python3 -X importtime bench/cli_traced.py TRACE_OUT table --format json

Behaves like `python -m qbound.cli ARGV` (same stdout, stderr and exit
code) and writes the aggregated spans to TRACE_OUT.  Run it with
`-X importtime` to get the import breakdown on stderr.
"""
import json
import sys
import time

T_START = time.perf_counter()

from spans import Tracer  # noqa: E402  (after T_START)


class _TracedOut:
    """stdout whose writes are recorded as `cli.write` spans."""

    def __init__(self, tracer, stream):
        self.write = tracer.wrap("cli.write", stream.write)


def main(trace_out, argv):
    t0 = time.perf_counter()
    import qbound.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = tracer.wrap("cli.parse", traced_build_parser)
    code = 1
    try:
        code = cli.main(argv, out=_TracedOut(tracer, sys.stdout))
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["import_s"] = import_s
        summary["wall_s"] = time.perf_counter() - T_START
        with open(trace_out, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
