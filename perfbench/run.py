#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload offline|serve|stream-ingest \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later calls only re-run the incremental build. The binary's standard
output is forwarded; its last line is the result object. With --trace 1
the spans of the traced pass are written to
.bench_build/traces/<workload>-seed<N>.jsonl.

The result is checked against BENCHMARK.json: with --trace 0 the metric
names must be exactly its end_to_end names, with --trace 1 exactly its
per_layer names. Any build, run or shape failure exits non-zero.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "skyline_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main(argv):
    build()
    if argv == ["--self-test"]:
        return subprocess.run([BINARY, "--self-test"]).returncode

    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    command = [BINARY] + argv
    trace = args["--trace"] == "1"
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%s.jsonl" % (args["--workload"], args["--seed"]))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail("last line is not a result object")
    want = expected_metrics(trace)
    if sorted(result.get("metrics", {})) != sorted(want):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: got %s" %
             sorted(result.get("metrics", {})))
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
