#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload cold_flow|edit_loop|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
library and the perfbench program (Release) under .bench_build/; later runs
only check the build is current.  The program's report goes to stdout and
its last line is the JSON result; build output goes to stderr.  The exit
code is non-zero when the build fails, the program fails, any op is wrong,
or the reported metrics do not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold_flow", "edit_loop", "serve_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return BUILD / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE / "src"):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: perfbench did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: perfbench exited {done.returncode} without a result")

    want = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: reported metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, units "
                 f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
