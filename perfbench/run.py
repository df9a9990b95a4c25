#!/usr/bin/env python3
"""Repository benchmark: builds dshuf_perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload dp_pls --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds perfbench/ (with
the repository's src/ and the dshuf_trace tool) into the directory named by
CARGO_TARGET_DIR, default .bench_build, then runs the workload in a process
of its own.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics (those of layers the
workload names absent, because it makes no call into them, read 0; any
other metric it does not report is an error), and the run's Chrome trace
must pass `dshuf_trace --check` (it is kept as
<build dir>/traces/<workload>.json). The last line of standard output is
one JSON object with exactly the keys correct, attempted, failed and
metrics. Exit code 0 means the run completed; a failed correctness check
shows as "correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
CHECK_TIMEOUT_S = 60


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT}/src", 2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "dshuf_perfbench", "dshuf_trace"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out


def run_workload(out, workload, seed, seconds, trace, small=False):
    """Runs one workload process; returns its full result record."""
    work = out / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(out / "dshuf_perfbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--work-dir={work}", f"--small={'true' if small else 'false'}"]
    try:
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            fail(f"{workload} exited with code {res.returncode}")
        for line in lines[:-1]:
            print(line)
        record = json.loads(lines[-1])
        if trace:
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            kept = traces / f"{workload}.json"
            shutil.move(str(work / "trace.json"), kept)
            check = subprocess.run(
                [str(out / "dshuf_trace" / "dshuf_trace"), f"--trace={kept}",
                 "--check"],
                capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)
            sys.stderr.write(check.stdout + check.stderr)
            if check.returncode != 0:
                record["correct"] = False
                record["failures"].append("trace failed dshuf_trace --check")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root", 2)
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    out = build()
    record = run_workload(out, args.workload, args.seed, args.seconds,
                          args.trace)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    absent = set(record["absent"]) if args.trace else set()
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        is_absent = (m["name"] in absent
                     or m["name"].split(".")[0] in absent)
        if got is not None and is_absent:
            fail(f"{args.workload} reported {m['name']} but names it absent")
        if is_absent:
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail(f"{args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"{args.workload:>12}  {m['name']:<26} {got['value']:>16.6g} "
              f"{m['unit']}")
    for why in record.get("failures", []):
        print(f"{args.workload:>12}  FAILED: {why}")
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
