"""Start ``repro serve`` in this process for the serve_mixed workload.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py --cache-dir DIR [--trace-out FILE]

Runs ``repro serve --cache-dir DIR`` with every other setting at its
default (serial backend, port 0; the URL is printed on the usual
``repro serve listening on`` line).  Before it starts the server, the
launcher takes one calibration point and prints
``calibration <point_s> <took_s>``, so that the set-up time can be
rescaled with a point from the same process.  SIGTERM drains the server; then
the launcher prints one JSON line with its peak RSS and, with
``--trace-out``, writes the span summary there and the spans beside it
(``FILE.spans.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import sys

import calibrate
from common import clock, peak_rss_mb  # importing common puts src/ on sys.path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    started = clock()
    point = calibrate.point()
    print(f"calibration {point!r} {clock() - started!r}", flush=True)
    tr = None
    if args.trace_out:
        import tracer as tracing

        tr = tracing.install(tracing.Tracer(), serve=True)
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--cache-dir", args.cache_dir])
    if tr is not None:
        tr.uninstall()
        with open(args.trace_out, "w") as handle:
            json.dump(
                {"summary": tr.summary(), "counters": dict(tr.counters)},
                handle,
            )
        tr.write(f"{args.trace_out}.spans.jsonl")
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
