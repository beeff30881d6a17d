#!/usr/bin/env python3
"""Build and run the signaling benchmark for one workload.

    python3 sigperf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds the `sigperf` package
(sigperf/Cargo.toml) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload in its own process.  The program
prints its metrics and, as the last line of standard output, one JSON
result object; the exit code is the program's.

Counts that must repeat across runs of the same build and seed are kept
under `<target dir>/sigperf-state/<build hash>/`, next to the spans of
traced runs.  `--record-digests` rewrites the output digests of the
default seed (sigperf/digests.txt) instead of checking them.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-figures", "analytic-spectrum", "node-million", "fault-storm"]
DEFAULT_SEED = 2003
# The program itself stops after its set-up and --seconds of measurement;
# this only guards against a hang.
TIMEOUT_SLACK_S = 150


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; returns the path of the program or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    built = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "sigperf")


def build_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    program = build()
    if program is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    state = os.path.join(target_dir(), "sigperf-state", build_hash(program))
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt"), "--state-dir", state]
    if args.record_digests:
        cmd.append("--record-digests")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=args.seconds + TIMEOUT_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
