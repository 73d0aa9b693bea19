#!/usr/bin/env python3
"""Builds and runs the cover-serving benchmark.

    python3 servebench/run.py [--workload cold-inproc|hot-tcp|churn-routed|all]
                              [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere inside a checkout. The benchmark is compiled from the
checkout's own sources into .bench_build/servebench (the root build tree
is never touched), then each workload runs in a fresh process.

With one workload and one --trace value, the last line of standard output
is that run's JSON result, with exactly the keys correct, attempted,
failed and metrics. With no arguments, every workload runs for
BENCHMARK.json's run_seconds, untraced (end-to-end metrics) and then
traced (per-layer metrics). Each result line then also carries the
"workload" and "trace" it belongs to. A traced run also writes the
ladder's spans to .bench_build/servebench/spans-<workload>-seed<N>.tsv.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ["cold-inproc", "hot-tcp", "churn-routed"]
RUN_TIMEOUT_S = 170


def run_seconds():
    """The run length BENCHMARK.json declares (30 s without the file)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 30


def build():
    """Configures and builds the benchmark; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_one(args, workload, trace, sha, labelled):
    cmd = [os.path.join(BUILD, "servebench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--git-sha", sha]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        out = timeout.stdout or ""
        sys.stdout.write(out if isinstance(out, str) else out.decode())
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if labelled and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        result.update(workload=workload, trace=trace)
        lines[-1] = json.dumps(result)
    sys.stdout.write("".join(line + "\n" for line in lines))
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "default: both, one run each")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, same code, oracle on")
    args = parser.parse_args()
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    labelled = len(workloads) * len(traces) > 1
    status = 0
    for trace in traces:
        for workload in workloads:
            status = run_one(args, workload, trace, sha, labelled) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
