#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

Run from the root of a recmem checkout:

    python3 perfbench/run.py --workload closed-durable --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the binary, the node stores and the trace
files. The benchmark's own output (host stamp, metric table, and the final
JSON line) goes to standard output; build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_revision(root):
    """The git commit when there is one, else a digest of the Go sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def private_mount_namespace():
    """The unshare prefix that gives the benchmark a mount namespace of its
    own, in which it mounts a tmpfs over its store directory; [] when the
    host allows none, and the stores stay on the checkout's disk."""
    for cmd in (["unshare", "--mount", "--propagation", "private"],
                ["unshare", "--user", "--map-root-user", "--mount", "--propagation", "private"]):
        try:
            if subprocess.run(cmd + ["true"], capture_output=True, timeout=10).returncode == 0:
                return cmd
        except (OSError, subprocess.TimeoutExpired):
            pass
    return []


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for d in ("tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = [binary] + sys.argv[1:] + ["--out", build, "--commit", source_revision(root)]
    unshare = private_mount_namespace()
    if unshare:
        args = unshare + args + ["--private-tmpfs"]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
