"""Run one fogsim command with spans recorded around its layer calls.

    python perfbench/launch.py SPANS_JSON WORKLOAD RUN_ID FOGSIM_ARG...

Imports ``fogsim.cli`` (timed as the ``cli.import`` span), wraps the module
attributes listed in ``spans.WRAPPED``, runs ``fogsim.cli.main`` inside a
``cli.<command>`` span and writes all spans to SPANS_JSON when it ends.  The
exit code is fogsim's.  Data files are written exactly as without tracing.
"""

from __future__ import annotations

import json
import sys
import time

from spans import COMMANDS, Tracer


def main(argv: list[str]) -> int:
    spans_path, workload, run_id, *fogsim_argv = argv
    tracer = Tracer(workload, run_id)
    start = time.perf_counter()
    import fogsim.cli  # imported here so that the cli.import span times it
    tracer.spans.append({"id": 0, "name": "cli.import", "start": start,
                         "end": time.perf_counter(), "parent": None, "thread": None,
                         "workload": workload, "run_id": run_id, "attrs": {}})
    tracer.install()
    command = next(a for a in fogsim_argv if a in COMMANDS)
    try:
        return tracer.record(f"cli.{command}", fogsim.cli.main, fogsim_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
