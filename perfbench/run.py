#!/usr/bin/env python3
"""Build the benchmark and the htforge-server daemon from source, then run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Cargo's build output goes to stderr;
stdout carries the benchmark's report, whose last line is the result
object. The build uses CARGO_TARGET_DIR (default: .bench_build at the
repository root). Run artifacts (result records with provenance, span
dumps, the daemon's socket, journal and log) go to .perfbench/.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What the benchmark builds from; their digest identifies the program
# measured when the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".perfbench", ".git"}


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "htforge-server")
    # Relative artifact paths keep the daemon's Unix socket path short.
    os.chdir(ROOT)
    bench = subprocess.run(
        [binary, *sys.argv[1:],
         "--server-bin", server,
         "--out-dir", ".perfbench",
         "--commit", git_commit(),
         "--source-digest", source_digest()],
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
