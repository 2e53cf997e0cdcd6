#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the streaming sort's spill files and the
traced run's spans all stay under .bench_build/ in the checkout. The
exit code is the benchmark's; a failed build exits non-zero without
printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,  # os.TempDir: where the streaming sort spills
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {build.returncode}")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
