#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload resnet-sparse --seed 42 --seconds 50 --trace 0

The first call configures and builds perfbench/ (the lazygpu library from
src/ plus the driver) into .bench_build/perfbench; later calls only check
that the build is up to date. The driver's stdout is passed through; its
last line is the JSON result. This wrapper adds one check across calls:
the per-workload simulated-result digest must be the same every time the
same build runs the same workload and seed, traced or not.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lazygpu_perfbench")
DIGESTS = os.path.join(BUILD, "digests.json")
# The driver's own runs end well inside this; it guards against a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "lazygpu_perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def binary_id():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_digests(lines, key_prefix):
    """Compare each 'sim_digest <workload> <hex>' line with the digest an
    earlier run of this build recorded; return the mismatch messages."""
    try:
        with open(DIGESTS) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    problems = []
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "sim_digest":
            continue
        key = f"{key_prefix}/{parts[1]}"
        if key in known and known[key] != parts[2]:
            problems.append(f"sim_digest {parts[2]} differs from {known[key]}"
                            f" recorded by an earlier run ({key})")
        known.setdefault(key, parts[2])
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the build or driver it is running before this exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 2)

    result = json.loads(lines[-1])
    problems = check_digests(lines[:-1], f"{binary_id()}/{args.seed}")
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
