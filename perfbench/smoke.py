"""Smoke run: every workload at a tiny size, untraced and traced, checking
that each metric named in BENCHMARK.json is emitted with its unit.

    python3 perfbench/smoke.py

Tiny inputs have no recorded reference, so answers go unchecked here.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, prepare, run


def main() -> int:
    prepare()
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run(name, seed=0, seconds=0.1, trace=trace, tiny=True)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: emitted {got}, declared {want}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{name} trace={trace}: {k} = {v['value']!r}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics", flush=True)
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
