"""Run ``ratemec.cli.main`` in a fresh process with its layers traced.

Usage: ``python perfbench/launcher.py <ratemec CLI arguments>``, with the
checkout's ``src`` on ``PYTHONPATH``.  Stdout and the exit code are the
CLI's own.  One extra stderr line, prefixed ``PERFBENCH_TRACE``, carries
the time to import ``ratemec.cli``, the time ``cli.main`` took and the
tracer's per-function summary.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import ratemec.cli

    import_s = time.perf_counter() - t0

    import json

    from tracer import Tracer
    from workloads import TRACE_MARKER

    tracer = Tracer()
    with tracer.installed():
        t1 = time.perf_counter()
        code = ratemec.cli.main(sys.argv[1:])
        run_s = time.perf_counter() - t1
    sys.stdout.flush()
    record = {"import_s": import_s, "run_s": run_s, "summary": tracer.summary()}
    print(TRACE_MARKER + json.dumps(record), file=sys.stderr)
    raise SystemExit(code)
