#!/usr/bin/env python3
"""Build the benchmark from source and run it.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache and the binary go to .bench_build/ at the repository
root, so nothing outside the checkout is written. The build log goes to
standard error; standard output is the benchmark's own, whose last line is
the JSON result. The exit code is the build's when it fails, else the
benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    # XDG_CONFIG_HOME keeps the go command's local telemetry counters in
    # the build directory too.
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOMODCACHE=os.path.join(BUILD, "gomodcache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOENV="off", GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local",
               GOPROXY="off", CGO_ENABLED="0")
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    bench = subprocess.run([binary, *sys.argv[1:], "--commit", commit()], cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
