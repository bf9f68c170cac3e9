"""Steadiness self-check of the benchmark.

    python3 bench/steady.py [--second-seed 1] [--workload NAME ...]

For each workload: two sets of RUNS untraced runs plus one traced run
each at SEED, then one untraced run at `--second-seed`, all with the
`run_seconds` of BENCHMARK.json.  It fails (exit 1) when the two sets'
medians of an end-to-end metric differ by more than the metric's bound,
when the structured output of same-seed runs differs, when a count of the
two traced runs differs, or when any run reports an incorrect output.  The
second seed's figures are printed beside the first, so that a later claim
can be shown on a seed not used while it was written.  Runs one process at
a time, from the root of the source tree.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 3  # untraced runs per set
SEED = 0  # the default seed, which both sets use


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    match = re.search(r"output digest ([0-9a-f]+)", done.stdout)
    return json.loads(lines[-1]), match.group(1) if match else ""


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--second-seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    count_names = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    ok = True
    for workload in args.workload:
        sets, digests, traced = [], set(), []
        for _ in range(2):
            values = {name: [] for name in bounds}
            for _ in range(RUNS):
                result, digest = run(workload, SEED, 0)
                ok &= result["correct"]
                digests.add(digest)
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            traced.append(run(workload, SEED, 1)[0])
            ok &= traced[-1]["correct"]
            sets.append(values)
        other, _ = run(workload, args.second_seed, 0)
        ok &= other["correct"]
        print(f"{workload}: seed {SEED}, {RUNS} runs per set; seed {args.second_seed} once")
        for name, bound in bounds.items():
            first, second = (statistics.median(s[name]) for s in sets)
            change = second / first - 1.0
            verdict = "ok" if abs(change) <= bound else "UNSTEADY"
            ok &= verdict == "ok"
            print(f"  {name:<14}{first:>14.6f}{second:>14.6f}{change:>+9.3f} (bound {bound})  {verdict}"
                  f"   seed {args.second_seed}: {other['metrics'][name]['value']:.6f}")
        if len(digests) != 1:
            ok = False
            print(f"  structured output differs between runs of seed {SEED}")
        for name in count_names:
            a, b = (t["metrics"][name]["value"] for t in traced)
            if a != b:
                ok = False
                print(f"  count {name} differs between traced runs: {a} vs {b}")
        print(f"  counts of the traced runs repeat: "
              f"{all(traced[0]['metrics'][n] == traced[1]['metrics'][n] for n in count_names)}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
