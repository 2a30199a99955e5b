#!/usr/bin/env python3
"""Build and run the gammajoin host-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload abprime-sweep --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/perfbench/ at
the repository root, with the Go build cache, temporary files and user
configuration redirected there too, so a run reads and writes nothing
outside the checkout besides the Go toolchain itself. Build output goes to
standard error; the benchmark's own standard output, whose last line is the
JSON result, passes through unchanged. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# A run must end within three minutes; the timed phases stop themselves
# well before this, so reaching it means the program hung.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(env["GOPATH"], "pkg", "mod")
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="-mod=readonly")
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
