#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e).

One workload, the form BENCHMARK.json names (the last stdout line is the
result JSON):
  python3 bench/e2e/run.py --workload q1_timer --seed 2022 --seconds 15 --trace 0

All workloads, each in its own process, with a merged JSON written to --out:
  python3 bench/e2e/run.py [--seed N] [--trace] [--smoke] [--out PATH]

Run-to-run spread of every metric over N seeds (N >= 5), for setting bounds:
  python3 bench/e2e/run.py --check-stability N [--seed N] [--seconds S]

run.py builds Release into build/e2e on first use (a standalone CMake
project that adds the library with tests, benches and examples off), writes
traces to build/e2e/trace-<workload>.json, and exits nonzero when the build
fails or any correctness gate fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ["q1_timer", "q2_ant_shuffle", "q1_reads", "fleet_zipf", "ingest_tcp"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds e2e_bench; build output goes to stderr."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env, timeout=840)


def run_workload(name, seed, seconds, trace, smoke):
    """Runs one workload process; returns (exit code, stdout lines, result)."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % name)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def check_declared(name, result, trace):
    declared = declared_metrics(trace)
    if declared is None or result is None:
        return True
    got = set(result["metrics"])
    if got == set(declared):
        return True
    print("error: %s reports %s, BENCHMARK.json declares %s" % (
        name, sorted(got ^ set(declared)), "per_layer" if trace else
        "end_to_end"), file=sys.stderr)
    return False


def fingerprint(lines):
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[1:3] == ["info", "fingerprint"]:
            return parts[3]
    return None


def run_all(args, names):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    out = {"seed": args.seed, "trace": args.trace, "smoke": args.smoke,
           "workloads": {}}
    for name in names:
        code, lines, result = run_workload(name, args.seed, args.seconds,
                                           args.trace, args.smoke)
        for line in lines[:-1] if result else lines:
            print(line)
        if result is None:
            merged["correct"] = False
            print("error: %s printed no result (exit %d)" % (name, code),
                  file=sys.stderr)
            continue
        if not args.smoke and not check_declared(name, result, args.trace):
            result["correct"] = False
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = value
        out["workloads"][name] = dict(result, fingerprint=fingerprint(lines))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def check_stability(args, names):
    """Runs every workload N times on seeds seed..seed+N-1 and prints, per
    metric, the median, the quartile spread (q3-q1)/median that the bounds in
    BENCHMARK.json are set against, and the (max-min)/median spread."""
    declared = declared_metrics(False) or {}
    ok = True
    print("%-15s %-14s %14s %9s %9s %7s  %s" % (
        "workload", "metric", "median", "iqr/med", "rng/med", "bound",
        "verdict"))
    for name in names:
        values = {}
        for i in range(args.check_stability):
            code, lines, result = run_workload(name, args.seed + i,
                                               args.seconds, False, args.smoke)
            if code != 0 or result is None or not result["correct"]:
                print("error: %s seed %d failed (exit %d)" % (
                    name, args.seed + i, code), file=sys.stderr)
                return 1
            print("%s seed %d fingerprint %s" % (
                name, args.seed + i, fingerprint(lines)), file=sys.stderr)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            iqr = (q[2] - q[0]) / med if med else 0.0
            rng = (max(vs) - min(vs)) / med if med else 0.0
            bound = declared.get(metric, {}).get("bound")
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = "ok" if iqr <= bound / 3 else "WIDE"
                ok = ok and verdict == "ok"
            print("%-15s %-14s %14.6g %9.4f %9.4f %7s  %s" % (
                name, metric, med, iqr, rng,
                "" if bound is None else "%.2f" % bound, verdict))
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: every workload in a few seconds")
    p.add_argument("--out", help="write the merged results JSON here")
    p.add_argument("--check-stability", type=int, metavar="N")
    args = p.parse_args()
    args.trace = args.trace == "1"
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else 15
    if args.check_stability is not None and args.check_stability < 5:
        p.error("--check-stability needs N >= 5")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else WORKLOADS
    if args.check_stability is not None:
        return check_stability(args, names)
    if args.workload and not args.out:
        code, lines, result = run_workload(args.workload, args.seed,
                                           args.seconds, args.trace,
                                           args.smoke)
        for line in lines:
            print(line)
        if result is None:
            return code or 1
        if not args.smoke and not check_declared(args.workload, result,
                                                 args.trace):
            return 1
        return code
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
