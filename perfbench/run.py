#!/usr/bin/env python3
"""Build perfbench from this checkout's source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kv-mica --seed 1 --seconds 20 --trace 0

Every argument is passed to the Go program; see perfbench/README.md. The Go
build cache, module cache, temporary files and tool state live under
.bench_build/ in the checkout, so nothing is read or written outside it.
The build's own output goes to standard error, so the last line of standard
output is the result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--spans", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
