"""Run the benchmark several times per workload and report each metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/spread.py --runs 10 [--seed0 1] [--workloads a,b]
                                [--trace 0|1] [--out FILE]

Runs go round-robin over the workloads, run i using seed seed0 + i, each
through BENCHMARK.json's command with its run_seconds.  For --trace 0
every end-to-end metric's spread is compared with a third of its bound
(set-up time is exempt, as it is in acceptance).  --out writes the
summary as JSON, the form of baseline/seed.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stdout}{out.stderr}")
    env = next((l for l in lines if l.startswith("env ")), "")
    return json.loads(lines[-1]), env


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "p25": q1, "p75": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    samples = {w: {} for w in workloads}
    envs = {}
    failed = 0
    for i in range(args.runs):
        for w in workloads:
            res, env = run_once(bench, w, args.seed0 + i, args.trace)
            envs.setdefault(w, env)
            failed += res["failed"]
            for name, m in res["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            print(f"run {i} {w}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    result = {"runs": args.runs, "seeds": [args.seed0, args.seed0 + args.runs - 1],
              "run_seconds": bench["run_seconds"], "trace": args.trace,
              "host": platform.platform(), "nproc": os.cpu_count(),
              "failed": failed, "workloads": {}}
    steady = True
    for w in workloads:
        result["workloads"][w] = {"env": envs[w], "metrics": {}}
        for name, values in samples[w].items():
            s = summary(values)
            result["workloads"][w]["metrics"][name] = s
            bound = bounds.get(name)
            mark = ""
            if args.trace == 0 and bound is not None and name != "setup_s":
                ok = s["spread"] < bound / 3
                steady &= ok
                mark = f" bound={bound} {'ok' if ok else 'TOO WIDE'}"
            print(f"{w:15s} {name:24s} median={s['median']:.6g} "
                  f"p25={s['p25']:.6g} p75={s['p75']:.6g} "
                  f"spread={s['spread']:.4f}{mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    print(f"failed={failed} steady={steady}")
    sys.exit(0 if failed == 0 and steady else 1)


if __name__ == "__main__":
    main()
