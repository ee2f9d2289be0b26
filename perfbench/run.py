#!/usr/bin/env python3
"""Build and run the garfield benchmark of record.

    python3 perfbench/run.py --workload <ssmw_cnn|p2p_tcp|msmw_byz> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library, the garfield_node tcp launcher and the benchmark binary (Release)
under .bench_build/perfbench; later calls rebuild incrementally. The
binary's stdout is passed through; its last line is the JSON result. With
--trace 1 the spans are also written as Chrome trace-event JSON to
.bench_build/perfbench/traces/<workload>-seed<n>.json.

Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Whole-invocation limit, build excluded; the benchmark binary stays well
# inside it (--seconds of measurement plus bounded set-up and replay).
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_quiet(cmd, log_path, env):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode


def build(out, env):
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
         "garfield_node"],
    ]
    for cmd in steps:
        if run_quiet(cmd, log, env) != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    # Compiler and benchmark temporaries stay inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(out, env):
        return 1
    bench = os.path.join(out, "perfbench")
    node = os.path.join(out, "garfield", "tools", "garfield_node")
    env["GARFIELD_NODE_BIN"] = node
    for binary in (bench, node):
        if not os.access(binary, os.X_OK):
            sys.stderr.write("perfbench: missing %s after build\n" % binary)
            return 1

    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    # Own process group, so a timeout also reaps the tcp rank processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: timed out\n")
        return 1
    # Reap anything left in the group (nothing, on a clean run).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok_shape = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok_shape = False
    if proc.returncode != 0 or not ok_shape:
        sys.stderr.write(stdout)
        sys.stderr.write("perfbench: exited %d without a valid "
                         "result\n" % proc.returncode)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
