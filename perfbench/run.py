#!/usr/bin/env python3
"""Build and run the seeded Serpens benchmark.

    python3 perfbench/run.py --workload serve_churn --seed 1 [--seconds 30] --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (libserpens from src/ plus serpens_perfbench) in .bench_build/ as a
Release build; later runs rebuild incrementally. The program's report
(every metric by name with unit and sample count, plus host/build
provenance) is passed through to stdout and kept under
.bench_build/results/. Before the result line is printed it is checked
against BENCHMARK.json: exactly the declared metrics for the mode
(end_to_end for --trace 0, per_layer for --trace 1), each a finite number
with its declared unit. The last stdout line is the program's JSON result;
the exit code is non-zero if the build, a result check or this validation
failed.

    python3 perfbench/run.py --validate FILE...

checks committed result rows (perfbench/trajectory.jsonl) the same way.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "serpens_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_rev():
    """Content hash of the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with one result object, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = declared_metrics(trace)
    got = result["metrics"]
    for name in sorted(set(declared) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(declared) & set(got)):
        m = got[name]
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if m.get("unit") != declared[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {declared[name]!r}")
    return problems


def run(args):
    if not build():
        return 1
    work = os.path.join(BUILD, "work")
    results = os.path.join(BUILD, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--source-rev", source_rev()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"serpens_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    with open(os.path.join(results, name), "w") as f:
        f.write(proc.stdout)
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        log(f"serpens_perfbench exited {proc.returncode} without a result")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("serpens_perfbench's last line is not JSON")
        return 1
    problems = validate(result, args.trace)
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            log("invalid result: " + p)
        return 1
    print(json.dumps(result), flush=True)
    return proc.returncode


def validate_files(paths):
    bad = 0
    for path in paths:
        with open(path) as f:
            for n, line in enumerate(f, 1):
                if not line.strip():
                    continue
                row = json.loads(line)
                for res in row["results"]:
                    for p in validate(res["result"], res["trace"]):
                        log(f"{path}:{n} {res['workload']} seed {res['seed']}: {p}")
                        bad += 1
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["serve_small_tcp", "serve_churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--validate", nargs="+", metavar="FILE")
    args = ap.parse_args()
    if args.validate:
        return validate_files(args.validate)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
