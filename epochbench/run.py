#!/usr/bin/env python3
"""End-to-end epoch benchmark: build, run one workload, report (README.md).

    python3 epochbench/run.py --workload amr-repart --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library and the benchmark binary
into $CARGO_TARGET_DIR (default .bench_build) on first use, runs one
workload, names its metrics and units as BENCHMARK.json does, and prints a
stamp line followed by the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Exit codes: 0 ok; 1 a correctness check failed (a correct=false result is
printed); 2 the benchmark could not be built or run (nothing is printed).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("amr-repart", "drift-halo", "serve-mixed")
# The binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"epochbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "epochbench")


def cache_value(cache, key):
    try:
        with open(cache, encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(cache) and cache_value(cache, "CMAKE_HOME_DIRECTORY") != BENCH_DIR:
        shutil.rmtree(out_dir)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out_dir, "epochbench")
    return binary if os.path.exists(binary) else None


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def stamp(out_dir, args):
    cache = os.path.join(out_dir, "CMakeCache.txt")
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = r.stdout.splitlines()[0] if r.returncode == 0 and r.stdout else ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "compiler": version or compiler,
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "commit": source_commit(),
    }


def result_line(raw, trace):
    """The benchmark's result from the binary's raw line: names and units
    come from BENCHMARK.json. Returns (result, problem)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    values = raw["values"]
    metrics = {}
    for m in spec:
        # Per-layer metrics a workload does not exercise read 0.
        value = values.get(m["name"], None if not trace else 0.0)
        if value is None:
            return None, f"end-to-end metric {m['name']} was not measured"
        if not math.isfinite(value):
            return None, f"{m['name']} is not finite"
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if raw["attempted"] < 1:
        return None, "nothing was attempted"
    return {"correct": True, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}, None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (the benchmark's own tests)")
    p.add_argument("--cut-offset", type=int, default=0,
                   help="test hook: corrupt the expected cut by this much")
    args = p.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log("build failed")
        return 2
    work = os.path.join(os.path.dirname(out_dir), "epochbench-work")
    os.makedirs(work, exist_ok=True)
    info = stamp(out_dir, args)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--stamp", json.dumps(info)]
    if args.trace:
        trace_file = os.path.join(work, f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    if args.tiny:
        cmd.append("--tiny")
    if args.cut_offset:
        cmd += ["--cut-offset", str(args.cut_offset)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 2
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode == 3:
        print(f"# stamp {json.dumps(info)}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if run.returncode != 0 or not lines:
        log(f"benchmark binary exited {run.returncode}")
        return 2
    for line in lines[:-1]:
        print(line)
    try:
        result, problem = result_line(json.loads(lines[-1]), args.trace)
    except (ValueError, KeyError) as e:
        result, problem = None, repr(e)
    if problem:
        log(f"malformed result: {problem}")
        return 2
    if args.trace:
        print(f"# trace {os.path.relpath(trace_file, ROOT)}")
    print(f"# stamp {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
