#!/usr/bin/env python3
"""Runs one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the Tabula library and the harness from source (Release, into
.bench_build/perfbench; a no-op once built), runs the harness, checks that
the metric names and units it reports are exactly those BENCHMARK.json
declares, and prints the harness output. The last line of standard output
is the result object. Build chatter goes to standard error.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
BINARY = BUILD_DIR / "tabula_perf"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; cannot build")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "tabula_perf",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.is_file()


def provenance_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(WORK_DIR),
               "--commit", provenance_id()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"harness printed nothing (exit {done.returncode})")
        return done.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness output does not end in a result object")
        return 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(args.trace == 1)
    if reported != declared:
        log(f"reported metrics {sorted(reported.items())} differ from "
            f"BENCHMARK.json {sorted(declared.items())}")
        return 1
    print("\n".join(lines), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
