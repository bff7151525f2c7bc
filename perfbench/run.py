"""twistres benchmark: time to a certified verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop in one
process: the next check starts when the previous verdict is in.  Every
pass is a fresh worker process (``perfbench/worker.py``), so caches start
empty as they do for ``twistres verify``.

``--trace 0`` reports the end-to-end metrics: ``verify_s`` (median over the
passes that fit in ``--seconds`` with the set-up processes, at least one),
``setup_s`` (median time from process start to instances and bar maps ready,
over 40 set-up processes and the passes) and
``peak_rss_mb`` (median peak resident memory of a pass).  ``--trace 1``
makes one untraced and one traced pass and reports the per-layer metrics of
the traced one, with both wall times.

Correctness: every check's verdict must match its expectation, and the
digests of every report and of the workload's outputs must equal the ones
pinned in ``expected.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("lift", "awez", "exact", "battery")
SETUP_PROCESSES = 40


class BenchError(Exception):
    pass


class Spawner:
    """Starts worker processes one at a time, all under one deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def run(self, role, workload, seed, *extra):
        """Returns (seconds from start to ``ready``, parsed result or None)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, role, workload, str(seed), *extra],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{role} worker for {workload} ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{role} worker for {workload} failed "
                             f"(exit code {proc.returncode})")
        if role == "setup":
            return setup_s, None
        return setup_s, json.loads(out.strip().splitlines()[-1])


def load_expected(workload):
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def gate(result, expected, seed, tally):
    import workloads

    attempted, failed, problems = workloads.score(
        result["verdicts"], result["digests"], expected, seed)
    tally[0] += attempted
    tally[1] += failed
    for p in problems:
        print(f"  UNEXPECTED: {p}")


def measure(spawner, args, expected, tally):
    # half the set-up samples before the passes and half after, so that
    # their median spans the run rather than one moment of it
    start = time.perf_counter()
    setups = [spawner.run("setup", args.workload, args.seed)[0]
              for _ in range(SETUP_PROCESSES // 2)]
    head = time.perf_counter() - start
    passes = []

    def projected_end():
        # after one more pass of the mean length so far, and the second
        # half of the set-up processes
        elapsed = time.perf_counter() - start
        return elapsed + (elapsed - head) / len(passes) + head

    # one pass at least; another only if the run still ends within --seconds
    while not passes or projected_end() <= args.seconds:
        setup_s, result = spawner.run("pass", args.workload, args.seed)
        setups.append(setup_s)
        passes.append(result)
        print(f"pass {len(passes)}: verify_s {result['verify_s']:.3f}  "
              f"peak_rss_mb {result['peak_rss_mb']:.1f}  "
              f"checks {len(result['verdicts'])}")
        gate(result, expected, args.seed, tally)
    setups += [spawner.run("setup", args.workload, args.seed)[0]
               for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]
    return {
        "verify_s": (statistics.median(p["verify_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def traced(spawner, args, expected, tally):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
    _, plain = spawner.run("pass", args.workload, args.seed)
    gate(plain, expected, args.seed, tally)
    _, result = spawner.run("trace", args.workload, args.seed, spans)
    gate(result, expected, args.seed, tally)
    tally[0] += 1
    if result["digests"] != plain["digests"]:
        tally[1] += 1
        print("  UNEXPECTED: traced digests differ from untraced ones")
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    metrics["trace.verify_s"] = (result["verify_s"], "s")
    metrics["trace.untraced_verify_s"] = (plain["verify_s"], "s")
    metrics["trace.overhead_ratio"] = (result["verify_s"] / plain["verify_s"], "ratio")
    print(f"traced verify_s {result['verify_s']:.3f} vs untraced "
          f"{plain['verify_s']:.3f}; spans written to "
          f"{os.path.relpath(spans, ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twistres", "__init__.py")):
        print(f"no twistres sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    expected = load_expected(args.workload)
    uses_seed = workloads.WORKLOADS[args.workload].uses_seed
    print(f"workload {args.workload}, seed {args.seed}: "
          + ("the seed picks the sampled bimodule coefficient pairs"
             if uses_seed else "the seed changes no input of this workload"))
    if uses_seed and args.seed != 0:
        print("reports that name the seed are gated on their verdicts only; "
              "their digests are pinned for seed 0")

    # room for the last pass to overrun --seconds, the set-up processes and
    # the traced runs: a run at --seconds 60 ends within 170 s
    spawner = Spawner(time.monotonic() + args.seconds + 110.0)
    tally = [0, 0]
    try:
        if args.trace:
            metrics = traced(spawner, args, expected, tally)
        else:
            metrics = measure(spawner, args, expected, tally)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = tally
    print(f"unexpected_ratio {failed / attempted:.6f} "
          f"({failed} unexpected of {attempted} checks and digests)")
    for key, (value, unit) in metrics.items():
        print(f"{key:<32} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{key:<32} {value:>16} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
