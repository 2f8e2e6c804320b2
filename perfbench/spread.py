#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way its acceptance check
measures it.

Runs one workload once per seed (untraced), then prints, for every
end-to-end metric, the median of the runs and the distance between the
first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json. Exact counts (from the result files) must be
identical across runs wherever they do not depend on the seed.

    python3 perfbench/spread.py --workload steady-sim --seeds 1,2,3,4,5

Run it from the repository root after building the benchmark once
(`cargo build --release --manifest-path perfbench/Cargo.toml`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    values, exact = {}, {}
    ok = True
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if run.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: FAILED (exit {run.returncode})", file=sys.stderr)
            print(run.stdout[-2000:], run.stderr[-2000:], file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        path = os.path.join("perfbench", "out",
                            f"result-{args.workload}-seed{seed}-trace0.json")
        for name, v in json.load(open(path)).get("exact", {}).items():
            exact.setdefault(name, set()).add(v)
        print(f"seed {seed}: ok", file=sys.stderr)

    print(f"{args.workload}: {len(seeds)} seeds, {seconds} s per run")
    print(f"{'metric':<24}{'median':>14}{'iqr/median':>12}{'bound':>8}  status")
    for m in bench["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        status = "ok" if spread < m["bound"] / 3 else (
            "within bound" if spread <= m["bound"] else "TOO WIDE")
        if m["name"] == "setup_s":
            status += " (not checked)"
        print(f"{m['name']:<24}{med:>14.6g}{spread:>12.4f}{m['bound']:>8}  {status}")
    varying = {k: sorted(v) for k, v in exact.items() if len(v) > 1}
    if varying:
        print("exact counts that differ between runs (fine only if seeded):")
        for k, v in sorted(varying.items()):
            print(f"  {k}: {v}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
