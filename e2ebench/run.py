#!/usr/bin/env python3
"""End-to-end benchmark of the served MM-DBMS.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the database and the benchmark driver from source (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build/ under the checkout), runs the
driver's self-test, then one run of the workload.  The driver's stderr (the
program's log at its default level) goes to a per-run log file under the
build directory; a traced run also leaves its spans there as JSON lines.

The last line of stdout is the result as one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric of BENCHMARK.json when --trace 0 and every
per-layer metric when --trace 1.  Exit code 0 only if every operation
succeeded and every oracle check held; no result is printed if the build,
the self-test or the run itself fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(code, message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures and builds the driver; returns the binary's path."""
    build_dir = os.path.join(out_dir, "e2ebench")
    log_path = os.path.join(out_dir, "e2ebench-build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(2, "build timed out; see " + log_path)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail(2, "build failed; see " + log_path)
    return os.path.join(build_dir, "e2ebench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_root()
    os.makedirs(out_dir, exist_ok=True)
    binary = build(out_dir)

    # The program runs as deployed: no MMDB_* knobs from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MMDB_")}

    selftest = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True, env=env, timeout=60, check=False)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail(4, "self-test failed")

    runs = os.path.join(out_dir, "runs")
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(runs, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    log_path = os.path.join(runs, tag + ".stderr.log")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        command += ["--spans", os.path.join(runs, tag + ".spans.jsonl")]
    try:
        with open(log_path, "w") as log:
            run = subprocess.run(command, stdout=subprocess.PIPE, stderr=log,
                                 text=True, env=env, timeout=RUN_TIMEOUT_S,
                                 check=False)
    except subprocess.TimeoutExpired:
        fail(3, "run timed out after %d s; see %s" % (RUN_TIMEOUT_S, log_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(3, "run printed nothing (exit %d); see %s"
             % (run.returncode, log_path))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(3, "run ended without a result (exit %d); see %s"
             % (run.returncode, log_path))
    want = expected_metrics(args.trace)
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        fail(3, "metrics %s differ from BENCHMARK.json's %s"
             % (sorted(got), sorted(want)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: got[name] for name in want}}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
