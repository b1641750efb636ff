#!/usr/bin/env python3
"""End-to-end benchmark of pm2sim: build, run one workload, or compare.

Run one workload (builds the benchmark from ../src on first use):

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

The last line of stdout is the JSON result. --out FILE also appends the
result, tagged with workload, seed, trace and start time, to a JSON-lines
file.

Compare two such files (a parent commit's and a change's runs, taken in
alternation so that slow phases of the host hit both sides):

    python3 perfbench/run.py compare base.jsonl change.jsonl
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mtbench")
SPANS = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("pingpong", "fanin_shared", "fanin_endpoints", "hybrid_app")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the build up to date; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", "mtbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(args):
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", SPANS]
    # The timed passes take at most 1.25 x --seconds; the rest is check
    # passes and probes of a few seconds.
    timeout_s = 2 * args.seconds + 60
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout_s} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "started": started, "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    # The determinism self-checks fail the run; the result stays printed.
    return proc.returncode


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                runs.setdefault(key, []).append(rec)
    return runs


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = {m["name"]: m for m in spec["end_to_end"]}
    specs.update({m["name"]: m for m in spec["per_layer"]})
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def interleaved(base, change):
    """True unless every run of one side started before the other's first."""
    tb = [r["started"] for runs in base.values() for r in runs if "started" in r]
    tc = [r["started"] for runs in change.values() for r in runs if "started" in r]
    return bool(tb and tc) and min(tb) < max(tc) and min(tc) < max(tb)


def compare(base_path, change_path):
    """Per (workload, metric): medians, quartiles, ratio and pair wins.

    A change is flagged only when it wins at least 9 in 10 pairs (ties count
    for neither) and the medians differ by more than the base's own
    quartile spread. Pairs match runs by seed, in seed order.
    """
    specs = metric_specs()
    base, change = load_runs(base_path), load_runs(change_path)
    if not interleaved(base, change):
        print("warning: the base and change runs were not taken in "
              "alternation; host metrics may differ by the host's phase, "
              "not by the change")
    print(f"{'workload':16} {'metric':34} {'base p50':>12} {'base q1-q3':>23} "
          f"{'change p50':>12} {'ratio':>7} {'wins':>7}  verdict")
    for key in sorted(set(base) & set(change)):
        b_by_seed = {r["seed"]: r["result"]["metrics"] for r in base[key]}
        c_by_seed = {r["seed"]: r["result"]["metrics"] for r in change[key]}
        seeds = sorted(set(b_by_seed) & set(c_by_seed))
        if not seeds:
            continue
        for name in b_by_seed[seeds[0]]:
            spec = specs.get(name, {})
            lower = spec.get("better", "lower") == "lower"
            bv = [b_by_seed[s][name]["value"] for s in seeds]
            cv = [c_by_seed[s][name]["value"] for s in seeds]
            bm, cm = statistics.median(bv), statistics.median(cv)
            q1, q3 = quartiles(bv)
            wins = sum((c < b) if lower else (c > b) for b, c in zip(bv, cv))
            losses = sum((c > b) if lower else (c < b) for b, c in zip(bv, cv))
            beyond_noise = abs(cm - bm) > (q3 - q1)
            verdict = ""
            if beyond_noise and wins >= 0.9 * len(seeds):
                verdict = "better"
            elif beyond_noise and losses >= 0.9 * len(seeds):
                verdict = "worse"
            bound = spec.get("bound")
            if bound is not None and bm != 0:
                worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
                if worse_by > bound:
                    verdict += " over-bound"
            ratio = cm / bm if bm else float("nan")
            print(f"{key[0]:16} {name:34} {bm:12.5g} {q1:11.5g}-{q3:<11.5g} "
                  f"{cm:12.5g} {ratio:7.4f} {wins:3}/{len(seeds):<3}  {verdict}")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("change")
        a = p.parse_args(argv[1:])
        return compare(a.base, a.change)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--out", help="append the tagged result to this file")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
