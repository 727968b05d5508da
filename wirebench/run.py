#!/usr/bin/env python3
"""Builds and runs the scalein wire-level benchmark.

    python3 wirebench/run.py --workload point --seed 1 --seconds 45 --trace 0
    python3 wirebench/run.py --smoke

Run from the repository root. The first call configures and builds the
library, scalein_served and the driver into $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload the driver has (those of BENCHMARK.json, and
adhoc) at tiny size, traced and untraced, and fails if a metric named in
BENCHMARK.json is missing or the oracle disagrees.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "wirebench", "scalein_served",
         "-j", str(min(4, os.cpu_count() or 1))],
        stdout=log, stderr=log, check=True)
    return os.path.join(out, "wirebench"), os.path.join(out, "scalein_served")


def driver_command(driver, server, args, extra=()):
    workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
    return [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--server", server, "--workdir", workdir, *extra]


def smoke(driver, server):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in ("point", "fanout", "adhoc"):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                      trace=trace)
            proc = subprocess.run(
                driver_command(driver, server, args, ["--smoke"]),
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:
                result = {}
            metrics = result.get("metrics", {})
            missing = sorted(expected[trace] - set(metrics))
            good = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0 and not missing)
            ok = ok and good
            print("smoke %-8s trace=%d %s attempted=%s failed=%s%s" % (
                workload, trace, "ok" if good else "FAIL",
                result.get("attempted"), result.get("failed"),
                " missing=" + ",".join(missing) if missing else ""))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke")
    try:
        driver, server = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("wirebench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(driver, server)
    sys.stdout.flush()
    return subprocess.run(driver_command(driver, server, args)).returncode


if __name__ == "__main__":
    sys.exit(main())
