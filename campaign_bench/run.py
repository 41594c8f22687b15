#!/usr/bin/env python3
"""Campaign benchmark runner.

Builds the benchmark package in this directory (which builds the framework
from ../src), then runs one workload and relays its output; the last line of
stdout is the result JSON. Run from the repository root:

    python3 campaign_bench/run.py --workload caps_inproc --seed 2026 --seconds 10 --trace 0
    python3 campaign_bench/run.py --self-test      # the benchmark's own unit tests

The build goes to $CARGO_TARGET_DIR when set, else .bench_build; traces and
per-run result files land in its out/ subdirectory. See README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cmake_dir():
    return os.path.join(build_dir(), "campaign_bench")


def build(target):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    b = cmake_dir()
    steps = []
    if not os.path.exists(os.path.join(b, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", b, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", b, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("campaign_bench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def revision():
    """git revision of the checkout, else a hash of the framework sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256-" + h.hexdigest()[:12]


def main(argv):
    if argv == ["--self-test"]:
        if not build("campaign_bench_test"):
            return 1
        return subprocess.run([os.path.join(cmake_dir(), "campaign_bench_test")]).returncode
    if not build("campaign_bench"):
        return 1
    cmd = [os.path.join(cmake_dir(), "campaign_bench")] + argv
    cmd += ["--rev", revision(), "--out", os.path.join(build_dir(), "out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
