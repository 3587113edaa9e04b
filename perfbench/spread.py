#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads serve_churn,...]
                                [--trace 0] [--seconds 20]
                                [--append perfbench/trajectory.jsonl --label NAME]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json. With
--append, one JSON row (label, host/build provenance, per-metric summary and
every run's result) is appended to the trajectory file; `run.py --validate`
checks such rows.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    notes = {}
    for line in lines:
        if line.startswith("provenance "):
            notes = json.loads(line[len("provenance "):])["notes"]
    # The program's own messages: invalid phases, mismatches, failures.
    for line in proc.stderr.splitlines():
        if line.startswith(("perfbench:", "run.py:")):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    if proc.returncode != 0 or not lines:
        return None, notes
    return json.loads(lines[-1]), notes


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--append", metavar="FILE")
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    row = {"label": args.label, "trace": args.trace, "seconds": seconds,
           "seeds": seed_list(args.seeds), "summary": {}, "results": []}
    failures = 0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in row["seeds"]:
            result, notes = run_once(w, seed, args.trace, seconds)
            row.setdefault("provenance", {k: v for k, v in notes.items()
                                          if k.startswith(("host.", "build.", "source."))})
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: FAILED", flush=True)
                failures += 1
                continue
            row["results"].append({"workload": w, "seed": seed,
                                   "trace": args.trace, "result": result})
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        row["summary"][w] = {}
        print(f"\n{w} ({len(row['seeds'])} seeds, {seconds} s)")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            s = summarize(v)
            row["summary"][w][m["name"]] = s
            bound = m.get("bound")
            spread = s["spread"]
            flag = "" if bound is None or spread is None else \
                ("ok" if spread <= bound / 3 else
                 "WIDE" if spread <= bound else "OVER")
            print(f"  {m['name']:36s} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread "
                  + ("   n/a " if spread is None else f"{100 * spread:6.2f}%")
                  + ("" if bound is None else f"  bound {100 * bound:.0f}% {flag}"),
                  flush=True)
    if args.append:
        with open(args.append, "a") as f:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
