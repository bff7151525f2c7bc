"""One benchmark process: set up a workload, optionally run it, report JSON.

    python3 perfbench/worker.py {setup|pass} WORKLOAD SEED
    python3 perfbench/worker.py trace WORKLOAD SEED SPANS_FILE

Prints ``ready`` as soon as the instances and their bar maps exist (the
parent times process start to this line as set-up), then, for ``pass`` and
``trace``, one JSON line with the timed result and the output digests.
``trace`` installs the tracer around the timed checks only.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    role, name, seed = argv[0], argv[1], int(argv[2])
    import twistres
    if not os.path.abspath(twistres.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"twistres imported from {twistres.__file__}, "
                         f"not from this checkout's src/")
    import workloads

    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed)
    print("ready", flush=True)
    if role == "setup":
        return 0

    tracer = None
    if role == "trace":
        from tracer import Tracer, check_seconds
        spans_file = argv[3]
        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        reports = workload.run(state)
    finally:
        verify_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "verify_s": verify_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "verdicts": [r.ok for r in reports],
        "digests": workloads.digests(workload, state, reports),
    }
    if tracer is not None:
        layers = {key: list(value) for key, value in tracer.layer_metrics().items()}
        for key, value in check_seconds(reports).items():
            layers[key] = [value, "s"]
        layers["trace.spans"] = [len(tracer.span_kind), "count"]
        result["layers"] = layers
        tracer.write_spans(spans_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
