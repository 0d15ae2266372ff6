#!/usr/bin/env python3
"""Build and run yieldbench, the end-to-end benchmark of the yield server.

Run from the repository root:

    python3 yieldbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Workloads are hot, cold and async (see yieldbench/main.go). The script
builds the benchmark from source with the local Go toolchain, then runs it;
the last line of standard output is the JSON result. Everything it writes
(Go caches, the binary, per-run scratch and trace files) stays under
.bench_build/ in the current directory. It exits non-zero, printing no
result, when the build fails, e.g. outside a full checkout.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(".bench_build")
    binary = os.path.join(build_dir, "yieldbench")

    env = dict(os.environ)
    for key in ("GOFLAGS", "GOWORK", "GOENV"):
        env.pop(key, None)
    env.update(
        GOCACHE=os.path.join(build_dir, "go-cache"),
        GOMODCACHE=os.path.join(build_dir, "go-mod"),
        GOPATH=os.path.join(build_dir, "go-path"),
        GOTMPDIR=os.path.join(build_dir, "go-tmp"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOTELEMETRY="off",
    )
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)

    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("yieldbench: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [binary, *sys.argv[1:], "-workdir", os.path.join(build_dir, "work")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
