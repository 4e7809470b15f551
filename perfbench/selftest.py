#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny worlds (a few seconds per workload).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that:
- an untraced and a traced run exit 0 with `"correct": true` and print
  exactly the `end_to_end` and `per_layer` metrics BENCHMARK.json lists,
  with the listed units;
- the traced run measures nothing BENCHMARK.json does not list;
- two `--record` runs print the same digests, and those match the tiny-world
  digests recorded in digests.txt.
Across all workloads, every `per_layer` metric must be measured by at least
one traced run. Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = "7"


def run(workload, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
           "--seconds", "0", "--scale", "tiny", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {p.returncode}\n{p.stderr[-3000:]}")
    return p.stdout, p.stderr


def check_metrics(workload, trace, key):
    out, err = run(workload, "--trace", trace)
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace {trace}: {result}")
    want = [(m["name"], m["unit"]) for m in SPEC[key]]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != want:
        sys.exit(f"FAIL {workload} trace {trace}: metrics differ from BENCHMARK.json {key}")
    if "unlisted metric" in err:
        sys.exit(f"FAIL {workload}: measured a metric BENCHMARK.json does not list\n{err}")
    measured = [l for l in err.splitlines() if l.startswith("perfbench: measured ")]
    return set(measured[-1].split(" ", 2)[2].split(",")) if measured else set()


def main():
    measured = set()
    for w in SPEC["workloads"]:
        name = w["name"]
        check_metrics(name, "0", "end_to_end")
        measured |= check_metrics(name, "1", "per_layer")
        first, _ = run(name, "--trace", "0", "--record")
        second, _ = run(name, "--trace", "0", "--record")
        if first != second:
            sys.exit(f"FAIL {name}: tiny-world digests differ between runs")
        recorded = [l for l in (HERE / "digests.txt").read_text().splitlines()
                    if l.startswith(f"{name}@tiny {SEED} ")]
        if first.splitlines() != recorded:
            sys.exit(f"FAIL {name}: tiny-world digests differ from digests.txt")
        print(f"ok {name}")
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in measured]
    if missing:
        sys.exit(f"FAIL no workload measures {missing}")
    print("selftest passed")


if __name__ == "__main__":
    main()
