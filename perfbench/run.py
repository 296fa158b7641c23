#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--seeds default|heldout]

Builds `perfbench` (a package of its own, depending on the repository's
crates by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build` in the checkout), then replaces this process with
`perfbench run ...`, whose last line of standard output is the result JSON.
Exits non-zero without a result when the build fails, e.g. when the
repository's crates are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(exe, [exe, "run", *sys.argv[1:]], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
