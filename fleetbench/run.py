#!/usr/bin/env python3
"""Build and run the fleet benchmark.

    python3 fleetbench/run.py --workload poll-100k|live-dag-100k|dist-100k \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (and, for
``--trace 1``, its alloc-count companion) with cargo, offline, into
``$CARGO_TARGET_DIR`` (default ``fleetbench/target``), then runs it. The
last line of standard output is the JSON result; the exit code is the
benchmark's own, or cargo's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", MANIFEST, *extra]
    # Cargo reports on stderr; keep stdout for the result line.
    code = subprocess.call(cmd, stdout=sys.stderr,
                           env={**os.environ, "CARGO_TARGET_DIR": target_dir})
    if code != 0:
        print(f"run.py: build failed ({' '.join(cmd)})", file=sys.stderr)
        sys.exit(code)


def main(args):
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    build(target_dir, "--bin", "fleetbench")
    build(target_dir, "--features", "alloc-count", "--bin", "fleetbench-alloc")
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "fleetbench"), *args]
    if traced:
        tag = "-".join(args[args.index(f) + 1] for f in ("--workload", "--seed")
                       if f in args[:-1])
        cmd += ["--alloc-bin", os.path.join(release, "fleetbench-alloc"),
                "--spans-out", os.path.join(target_dir, "fleetbench-spans",
                                            f"{tag or 'run'}.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main(sys.argv[1:])
