"""Record the reference answers every benchmark run is checked against.

    python3 perfbench/record.py [workload ...]

For each pool index it sets up the workload, runs one unit and stores the
answers in ``perfbench/refs/<workload>.json`` with the environment that
produced them. References come from the commit that defined the
benchmark; re-record only when a change is meant to alter the answers.
"""

from __future__ import annotations

import json
import sys

from run import HostClock, Meter, environment, prepare


def main(names) -> int:
    prepare()
    from workloads import POOL, WORKLOADS, refs_path

    for name in names or WORKLOADS:
        w = WORKLOADS[name]
        pool = {}
        for p in range(POOL):
            pool[str(p)] = w.unit(w.setup(p), Meter(HostClock()))
            print(f"{name} pool {p}: recorded", flush=True)
        path = refs_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"environment": environment(), "pool": pool}, fh,
                      separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
