#!/usr/bin/env python3
"""Build and run the cold-sweep benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 40 --trace 0

Builds the Go benchmark program in this directory (a module of its own that compiles
the repository's packages from source through a replace directive) into
.bench_build/, with the Go build cache and temporary files there too, then
runs it in a fresh process from the checkout root. Its last stdout
line is the JSON result; see README.md in this directory.
"""

import hashlib
import os
import signal
import subprocess
import sys


def revision(root):
    """Names the code under test: the git SHA in a git checkout, otherwise
    (an exported tree) a digest of every Go source and module file."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for d, dirs, files in os.walk(root):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run(cmd, cwd, env):
    """Runs cmd to completion; on SIGTERM or Ctrl-C stops it and waits."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        # The go command keeps telemetry and settings under the user's
        # config directory; keep those inside the checkout too.
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(build, "perfbench")
    if run(["go", "build", "-buildvcs=false", "-o", binary, "."], here, env) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-root", os.path.join(build, "runs"), "-git-sha", revision(root)] + sys.argv[1:]
    return run(args, root, env)


if __name__ == "__main__":
    # SIGTERM unwinds through run()'s cleanup like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
