#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload rpc-steady --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary live under
.bench_build/ in the working directory, so nothing is written outside
it. All arguments are passed to the driver; its last line of standard
output is the JSON result. A failed build exits non-zero without a
result.
"""
import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go command is not on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "PPROF_TMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
