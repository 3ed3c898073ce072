#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The CliqueMap library and the `cmbench`
program are compiled from the checkout's sources into .bench_build/ (a no-op
when up to date). The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

with every end_to_end metric of BENCHMARK.json for --trace 0 and every
per_layer metric for --trace 1. The line before it ("# context ...") records
machine, compiler, build type, commit and seed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds cmbench; exits without a result on failure."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "cmbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], text=True,
                                         stdout=subprocess.PIPE,
                                         stderr=subprocess.DEVNULL).stdout
                    return out.splitlines()[0] if out else cxx
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds (works without git)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="wall time to measure (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()

    if args.selftest:
        proc = subprocess.run([binary, "--selftest"], timeout=600)
        sys.exit(proc.returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("cmbench timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"cmbench printed nothing (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"cmbench's last line is not JSON (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    with open(os.path.join(HERE, "metrics.json")) as f:
        catalog = json.load(f)
    if not args.trace:
        print(f"# {'metric':<22} {'value':>16} {'unit':<9} clock gated")
        for name, m in catalog["end_to_end"].items():
            if name in report["metrics"]:
                print(f"# {name:<22} {report['metrics'][name]:>16.6g} "
                      f"{m['unit']:<9} {m['clock']:<5} {'yes' if m['gated'] else 'no'}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in report["metrics"]:
            fail(f"cmbench did not report {m['name']}")
        metrics[m["name"]] = {"value": report["metrics"][m["name"]],
                              "unit": m["unit"]}
    for note in report.get("notes", []):
        print(f"# note: {note}")
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "latency_limit_us": report["latency_limit_us"],
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "compiler": compiler(), "build_type": BUILD_TYPE,
        "commit": commit(), "source_digest": source_digest(),
        "all_metrics": report["metrics"],
    }
    print("# context " + json.dumps(context, sort_keys=True))
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
