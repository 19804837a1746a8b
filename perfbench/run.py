#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `qelectctl` (the daemon the serve
workloads start) and the benchmark binary in release mode, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then hands over to the
benchmark binary, whose last line of output is the JSON result. Build
output goes to standard error.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        sys.exit("perfbench: run from the repository root (no Cargo.toml and crates/ here)")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "qelect-bench",
         "--bin", "qelectctl"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(bench, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    out = os.path.join(root, ".perfbench_out")
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--qelectctl", os.path.join(target, "release", "qelectctl"), "--out", out]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
