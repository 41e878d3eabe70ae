"""Run the splitclosure CLI with span tracing and write the span summary.

Usage: python bench/traced_cli.py SUMMARY.json <splitclosure arguments>

The exit code is the CLI's.  The summary is ``tracing.summarize`` of
every span the run recorded, as JSON.
"""

import json
import sys

from tracing import Tracer, summarize


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        from splitclosure import cli

        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summarize(tracer.spans), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
