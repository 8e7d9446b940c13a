"""Compare two saved runs of one workload, metric by metric.

    python3 perfbench/compare.py .perfbench_out/A.json .perfbench_out/B.json

Prints each metric of both runs and B/A. Runs measured on different kernel
lanes, workloads or trace modes are not comparable: the comparison is
refused with exit code 2. One pair of runs does not establish a gain; see
README.md for the rule.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("lane", "workload", "trace")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    a, b = runs
    for key in MUST_MATCH:
        if a["meta"][key] != b["meta"][key]:
            print(f"refused: {key} differs ({a['meta'][key]!r} vs "
                  f"{b['meta'][key]!r})", file=sys.stderr)
            return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"{'metric':48} {'A':>14} {'B':>14} {'B/A':>8}")
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = f"{vb / va:8.3f}" if va else f"{'-':>8}"
        print(f"{name:48} {va:14.6g} {vb:14.6g} {ratio} {ma[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
