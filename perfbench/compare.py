"""Compare result files written by run.py, metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both runs and their ratio.  Refuses (exit 2) to
compare runs of different workloads or trace modes, or runs whose rational
backends differ: QQ arithmetic with gmpy2 and with ``fractions`` differ by
far more than any change the benchmark is meant to resolve.  Runs on
different seeds are compared with a warning, because the seed moves item
costs (see README.md).
"""

from __future__ import annotations

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            print(f"refusing: {key} differs ({before[key]} vs {after[key]})", file=sys.stderr)
            return 2
    backends = before["env"]["rational_backend"], after["env"]["rational_backend"]
    if backends[0] != backends[1]:
        print(f"refusing: rational backends differ ({backends[0]} vs {backends[1]})",
              file=sys.stderr)
        return 2
    if before["seed"] != after["seed"]:
        print(f"warning: seeds differ ({before['seed']} vs {after['seed']})", file=sys.stderr)
    print(f"{'metric':42s} {'before':>14s} {'after':>14s} {'after/before':>13s}")
    for name, entry in before["metrics"].items():
        a, b = entry["value"], after["metrics"][name]["value"]
        ratio = f"{b / a:13.3f}" if a else f"{'-':>13s}"
        print(f"{name:42s} {a:14.6g} {b:14.6g} {ratio}  {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
