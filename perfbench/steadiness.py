#!/usr/bin/env python3
"""Steadiness record: two sets of ten runs of every workload, and per
end-to-end metric each set's median, quartiles and spread and the move of
the median from the first set to the second, against the metric's bound.

    python3 perfbench/steadiness.py

Run it from the repository root. Each run is a separate `perfbench/run.py`
process; a set runs every workload with seeds 1..10, one run after the
other. Spread is (q3 - q1) / median, with Python's
`statistics.quantiles(values, n=4)`; a move is the share by which the
second median is worse than the first. Every metric, setup_s included, is
marked where its spread or its move exceeds its bound. Exits non-zero if a
run fails or is incorrect, or a mark is set.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_set(spec):
    """Returns {workload: {metric: [value per seed]}} and whether all ran."""
    ok = True
    values = {}
    for w in spec["workloads"]:
        name = w["name"]
        values[name] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            res = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {res.returncode}\n"
                      f"{res.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            print(lines[0], file=sys.stderr, flush=True)
            rec = json.loads(lines[-1])
            if not rec["correct"] or rec["failed"]:
                print(f"{name} seed {seed}: correct={rec['correct']} "
                      f"failed={rec['failed']}\n{res.stdout}",
                      file=sys.stderr)
                ok = False
            for m, v in values[name].items():
                v.append(rec["metrics"][m]["value"])
    return values, ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    medians = []
    for s in range(1, SETS + 1):
        values, ran = run_set(spec)
        ok = ok and ran
        medians.append({})
        print(f"\nSet {s}:\n")
        print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, metrics in values.items():
            for m in spec["end_to_end"]:
                v = metrics[m["name"]]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                mark = " !" if spread > m["bound"] else ""
                ok = ok and not mark
                medians[-1][(name, m["name"])] = med
                print(f"| {name} | {m['name']} | {m['unit']} | {med:.6g} | "
                      f"{q1:.6g} | {q3:.6g} | {spread:.4f}{mark} | "
                      f"{m['bound']} |", flush=True)
    print("\nMedian moves, set 1 to set 2 (positive = worse):\n")
    print("| workload | metric | set 1 | set 2 | move | bound |")
    print("|---|---|---|---|---|---|")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if not all(key in s for s in medians):
                continue
            a, b = medians[0][key], medians[1][key]
            move = (b - a) / a if m["better"] == "lower" else (a - b) / a
            mark = " !" if move > m["bound"] else ""
            ok = ok and not mark
            print(f"| {w['name']} | {m['name']} | {a:.6g} | {b:.6g} | "
                  f"{move:+.4f}{mark} | {m['bound']} |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
