#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. `rmr-perfbench` is built with
`cargo build --release` into `$CARGO_TARGET_DIR` (default `.bench_build`),
so the first run of a checkout also compiles the workspace crates it
depends on. Its standard output is passed through; its last line
is the JSON result. Traced runs also write their spans, as Chrome
`trace_event` JSON, under `<target dir>/perfbench-traces/`.

Exits non-zero, without printing a result, if the build fails (for
example when the workspace crates are missing) or the program does not
produce a well-formed result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["bank-sync", "catalog-read-mostly", "catalog-observed", "bank-async"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, **kw):
    """Runs `cmd` in its own process group, killing the whole group (and
    waiting for it) if it outlives `timeout` seconds."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def valid(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == RESULT_KEYS
        and isinstance(result["metrics"], dict)
        and all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")

    cmd = [
        os.path.join(target, "release", "rmr-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(target, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not valid(lines[-1]):
        sys.stderr.write(out)
        sys.exit(f"perfbench: rmr-perfbench failed (exit {code}) or printed no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
