#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

  python3 perfbench/check.py spread [--workload W ...] [--seeds 1-10]
      Runs each workload once per seed and prints, for every end-to-end
      metric, the median and the spread (interquartile distance over the
      median, from statistics.quantiles(n=4)) next to the metric's bound
      in BENCHMARK.json.

  python3 perfbench/check.py determinism [--workload W ...] [--seed S]
      Runs each workload twice with seed S and once with seed S + 1. The
      two runs of one seed must print identical deterministic outputs
      (simulator times and bytes, peaks, digests, reject counts), and
      every run must pass its correctness checks.

Exits 1 if a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(cfg, workload, seed, trace=0):
    cmd = cfg["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(cfg["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    det = next((l[len("deterministic "):] for l in lines if l.startswith("deterministic ")), "{}")
    return json.loads(lines[-1]), json.loads(det)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(cfg, workloads, seed_list):
    ok = True
    for w in workloads:
        values = {}
        for s in seed_list:
            result, _ = run(cfg, w, s)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: attempted {result['attempted']} failed {result['failed']}", flush=True)
        for m in cfg["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            share = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if share <= m["bound"] / 3 else ("  above bound/3" if share <= m["bound"] else "  ABOVE BOUND")
            ok &= share <= m["bound"]
            print(f"  {w:18} {m['name']:20} median {med:12.6g} spread {share:7.4f} bound {m['bound']}{flag}")
            print("      values " + " ".join(f"{x:.5g}" for x in v))
    return ok


def determinism(cfg, workloads, seed):
    ok = True
    for w in workloads:
        (r1, d1), (r2, d2), (r3, _) = (run(cfg, w, s) for s in (seed, seed, seed + 1))
        same = d1 == d2
        correct = r1["correct"] and r2["correct"] and r3["correct"]
        ok &= same and correct
        print(f"{w}: same-seed deterministic outputs {'equal' if same else 'DIFFER'}; "
              f"correct on seeds {seed}, {seed}, {seed + 1}: {correct}")
        if not same:
            for k in sorted(set(d1) | set(d2)):
                if d1.get(k) != d2.get(k):
                    print(f"  {k}: {d1.get(k)} != {d2.get(k)}")
    return ok


def main():
    cfg = bench()
    names = [w["name"] for w in cfg["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["spread", "determinism"])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seed", type=int, default=1)
    a = p.parse_args()
    workloads = a.workload or names
    ok = spread(cfg, workloads, seeds(a.seeds)) if a.mode == "spread" else determinism(cfg, workloads, a.seed)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
