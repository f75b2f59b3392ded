#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tpcb-hot --seed 1993 --seconds 10 --trace 0

The Go build cache, the binary and the traced runs' Chrome traces all go
under .bench_build/ in the checkout. The last line of standard output is the
result JSON; the exit code is non-zero if the build fails, a check fails or
the run errors.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """SHA-256 over every Go source and module file of the checkout, so a
    result names the code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command's own config and telemetry live under the user
        # config directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",  # never fetch a toolchain
        "GOPROXY": "off",  # the module has no dependencies to fetch
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    run = subprocess.run([binary, *sys.argv[1:],
                          "--commit", git_commit(),
                          "--source", source_digest(),
                          "--trace-out", os.path.join(BUILD, "traces")],
                         cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
