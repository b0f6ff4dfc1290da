#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload NAME [--seeds 1-10] [--seconds S]

Runs `run.py --trace 0` once per seed and prints, for each end-to-end
metric, the median of the per-run values and the distance between their
first and third quartiles as a share of that median. A spread above the
metric's bound in BENCHMARK.json means the bound cannot tell a regression
from noise; below a third of it leaves headroom for a noisier machine.
Exits 1 when any spread other than setup_s exceeds a third of its bound.
"""

import argparse
import json
import os
import subprocess
import sys

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=run.ROOT, stdout=subprocess.PIPE, check=True,
        )
        lines = done.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for note in (line for line in lines if line.startswith(f"[{args.workload}]")):
            print(f"  {note}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, q2, q3 = run.quartiles(values[name])
        share = run.spread(values[name])
        ok = name == "setup_s" or share <= bound / 3
        steady &= ok
        print(f"{name:<16} median {q2:<14.6g} quartiles {q1:.6g}..{q3:.6g}  spread {share:.4f}  "
              f"bound {bound}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
