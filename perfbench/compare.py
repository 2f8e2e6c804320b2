#!/usr/bin/env python3
"""Compare two benchmark results, metric by metric.

Each argument is a result file the benchmark wrote to perfbench/out/
(`result-<workload>-seed<n>-trace<t>.json`). Prints every metric of
both, the change as a share of the first, and for end-to-end metrics
whether the change stays inside the bound BENCHMARK.json fixes. Exact
counts that differ are listed. Results measured on different hosts
(nproc, CPU model or toolchain) are still compared, under a warning.

    python3 perfbench/compare.py OLD.json NEW.json
"""

import json
import sys

HOST_KEYS = ("nproc", "cpu", "rustc")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = (json.load(open(p)) for p in sys.argv[1:])
    bench = json.load(open("BENCHMARK.json"))
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    for key in HOST_KEYS:
        a, b = old["host"].get(key), new["host"].get(key)
        if a != b:
            print(f"WARNING: results come from different hosts: {key} {a!r} vs {b!r}; "
                  "their times are not comparable", file=sys.stderr)
    for key in ("workload", "seconds", "trace"):
        if old.get(key) != new.get(key):
            print(f"WARNING: {key} differs: {old.get(key)!r} vs {new.get(key)!r}",
                  file=sys.stderr)
    print(f"commits: {old['host'].get('commit')} -> {new['host'].get('commit')}")

    print(f"{'metric':<36}{'old':>14}{'new':>14}{'change':>9}  verdict")
    for name, m in declared.items():
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        if a is None or b is None:
            continue
        change = (b - a) / a if a else 0.0
        worse = -change if m["better"] == "higher" else change
        verdict = ""
        if "bound" in m:
            verdict = "REGRESSION" if worse > m["bound"] else "within bound"
        print(f"{name:<36}{a:>14.6g}{b:>14.6g}{change:>+9.1%}  {verdict}")

    for name in sorted(set(old.get("exact", {})) | set(new.get("exact", {}))):
        a, b = old.get("exact", {}).get(name), new.get("exact", {}).get(name)
        if a != b:
            print(f"exact count {name}: {a} -> {b}")
    for r in (old, new):
        if not r.get("correct"):
            print(f"NOTE: a result is not correct: {r.get('failures')}")


if __name__ == "__main__":
    main()
