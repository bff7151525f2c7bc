"""Rewrite ``expected.json``: the seed-0 digests the benchmark gates on.

    python3 perfbench/pin.py

Outputs must stay bit for bit, so run this only when the pinned outputs
are meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import time

from run import EXPECTED, WORKLOADS, Spawner


def main():
    pinned = {}
    for name in WORKLOADS:
        _, result = Spawner(time.monotonic() + 600).run("pass", name, 0)
        if not all(result["verdicts"]):
            raise SystemExit(f"{name}: a check has an unexpected verdict; "
                             "not pinning")
        pinned[name] = {"reports": result["digests"]["reports"],
                        "outputs": result["digests"]["outputs"]}
        print(f"{name}: {len(pinned[name]['reports'])} reports, "
              f"outputs {sorted(pinned[name]['outputs'])}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
