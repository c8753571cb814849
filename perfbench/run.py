#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/bench.exe with dune, then
runs it with the given arguments plus the source revision.  The last line
of standard output is the result JSON; the exit code is non-zero when the
build fails or the benchmark fails a check (oracle mismatch, counters that
do not repeat, a replay that disagrees with the service).
"""

import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def revision():
    """The git revision of this checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return "unknown"
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 1
    # dune's progress goes to stderr so stdout stays the benchmark's own
    build = subprocess.run(cmd + ["build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([EXE] + sys.argv[1:] + ["--rev", revision()])

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
