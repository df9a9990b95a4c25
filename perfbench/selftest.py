#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload, at reduced size, it
runs the benchmark twice with one seed and once with the next seed, and
requires:

  * every run correct, with no failed epoch;
  * identical exact metrics across the two same-seed runs (shuffle.* and
    netsim.* counts, peak_storage_ratio, val_top1, train_loss, and the
    digest of the final shard contents);
  * a different exchange under the other seed (a changed shard digest, or
    for sim_pls, whose exchange runs inside the trainer, a changed
    training loss), so a seed argument that is silently ignored fails.

Exits 0 when every workload passes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

EXACT = [
    "shuffle.msgs", "shuffle.wire_bytes", "shuffle.header_bytes",
    "shuffle.fallbacks", "shuffle.shard_digest", "netsim.context_switches",
    "netsim.flows", "netsim.refill_work", "netsim.virtual_epoch_us",
    "peak_storage_ratio", "val_top1", "train_loss",
]
WORKLOADS = ["dp_pls", "exchange_gs", "virtual_1024", "sim_pls"]
SEED = 7


def value(rec, name):
    m = rec["metrics"].get(name)
    return None if m is None else m["value"]


def main():
    out = bench.build()
    problems = []
    for w in WORKLOADS:
        runs = [bench.run_workload(out, w, s, 10, 0, small=True)
                for s in (SEED, SEED, SEED + 1)]
        for s, rec in zip((SEED, SEED, SEED + 1), runs):
            if not rec["correct"] or rec["failed"] or rec["attempted"] < 1:
                problems.append(f"{w} seed {s}: correct={rec['correct']} "
                                f"attempted={rec['attempted']} "
                                f"failed={rec['failed']} "
                                f"{rec.get('failures')}")
        a, b, c = runs
        compared = [k for k in EXACT if value(a, k) is not None]
        for k in compared:
            if value(a, k) != value(b, k):
                problems.append(f"{w}: {k} differs across same-seed runs "
                                f"({value(a, k)!r} vs {value(b, k)!r})")
        probe = ("train_loss" if value(a, "shuffle.shard_digest") is None
                 else "shuffle.shard_digest")
        if value(a, probe) == value(c, probe):
            problems.append(f"{w}: {probe} ignores the seed")
        print(f"{w:>12}: {len(compared)} exact metrics compared, "
              f"{probe} seed {SEED}={value(a, probe)!r} "
              f"seed {SEED + 1}={value(c, probe)!r}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
