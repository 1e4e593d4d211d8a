#!/usr/bin/env python3
"""Build and run the repo benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library under src/) into
.bench_build/perfbench on first use, runs one workload, and prints as
the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; each carries its unit. Build output goes to stderr. Exits
non-zero, printing no result, when the sources are missing or the
build or run fails; exits 1 after the result when a check failed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")


def source_digest():
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:12]


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        git = out.stdout.strip() if out.returncode == 0 else "nogit"
    except (OSError, subprocess.TimeoutExpired):
        git = "nogit"
    return f"{git}+src.{source_digest()}"


def build(deadline):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.time()))
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}", 3)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 3)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no src/ beside perfbench/: nothing to build")

    build(time.time() + BUILD_TIMEOUT_S)
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK),
           "--rev", revision()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        die(f"benchmark did not finish: {err}", 4)
    lines = run.stdout.strip().splitlines()
    if not lines:
        die(f"benchmark printed nothing (exit {run.returncode})", 4)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        die(f"benchmark exited {run.returncode} without a result", 4)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = raw["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        die(f"metrics missing from BENCHMARK.json: {unknown}", 5)
    metrics = {}
    for m in listed:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                die(f"end-to-end metric {m['name']} not measured", 5)
            # A layer this workload does not exercise.
            value = 0.0
        if not math.isfinite(value) or (not args.trace and value <= 0):
            die(f"metric {m['name']} = {value} is not a measurement", 5)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    correct = bool(raw["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
