#!/usr/bin/env python3
"""Run the full verification battery over the built-in instances.

Equivalent to ``twistres verify`` but prints a compact per-instance table
with timings and the peak resident memory of the process so far (MB, from
``resource.getrusage``), suitable for leaving running after changes to the
kernel.  Each row also gives the sha256 of the instance's report text as
``twistres verify --instance NAME --json`` prints it (with the same
``--field``, ``--hdeg``, ``--gdeg`` and ``--seed``), so a change that must
keep the reports bit for bit is compared in one run.  The first line, ``import:``, gives the seconds spent importing
``twistres`` and the peak RSS right after it: the fixed cost every
verifying process pays before its first check.
"""

import argparse
import hashlib
import resource
import sys
import time


def peak_rss_mb():
    """The peak resident memory of this process so far, in MB (Linux
    reports ``ru_maxrss`` in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


IMPORT_START = time.perf_counter()
from twistres.cli import verify_text  # noqa: E402
from twistres.instances import BUILTIN_NAMES, builtin_instance  # noqa: E402
from twistres.suite import verify_reports  # noqa: E402
IMPORT_SECONDS = time.perf_counter() - IMPORT_START
IMPORT_RSS_MB = peak_rss_mb()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", nargs="*", default=list(BUILTIN_NAMES))
    parser.add_argument("--field", default=None)
    parser.add_argument("--hdeg", type=int, default=None)
    parser.add_argument("--gdeg", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"import: {IMPORT_SECONDS:.3f}s, {IMPORT_RSS_MB:.1f} MB peak")
    failures = 0
    grand_start = time.perf_counter()
    for name in args.instances:
        t0 = time.perf_counter()
        instance = builtin_instance(name, field=args.field,
                                    hdeg=args.hdeg, gdeg=args.gdeg)
        reports = verify_reports(instance, seed=args.seed)
        bad = [r for r in reports if not r.ok]
        failures += len(bad)
        elapsed = time.perf_counter() - t0
        text = verify_text(reports) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{name:<18} {len(reports):>3} checks  "
              f"{len(bad):>2} unexpected  sha256 {digest}  {elapsed:7.1f}s  "
              f"{peak_rss_mb():7.1f} MB peak")
        for r in bad:
            print("   " + r.line())
    total = time.perf_counter() - grand_start
    print(f"total: {total:.1f}s, unexpected outcomes: {failures}, "
          f"peak RSS: {peak_rss_mb():.1f} MB")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
