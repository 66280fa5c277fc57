"""Run one relbgg CLI request under the tracer (traced cli-cold run).

Usage: python coldtrace.py SPANS_FILE REQUEST_ID ARGV...  with the program's
src/ on PYTHONPATH.  Behaves like ``python -m relbgg ARGV...`` and writes the
request's spans and counters to SPANS_FILE as JSON on the way out.
"""

import json
import sys

import tracer


def main() -> int:
    import relbgg.cli

    t = tracer.Tracer()
    t.request = int(sys.argv[2])
    t.install()
    try:
        return relbgg.cli.main(sys.argv[3:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"spans": t.spans, "counters": t.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
