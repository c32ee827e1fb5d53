#!/usr/bin/env python3
"""Build the benchmark and the `gaia` binary from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_year --seed 1 --seconds 10 --trace 0

Workloads: run_year, sweep_audit, serve_submit, serve_mixed. The last line
of standard output is the result object; the line before it records the
host. Builds go to $CARGO_TARGET_DIR (default .bench_build), and run
artifacts to its perfbench-work/ subdirectory.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# What the binaries are built from: hashed when there is no git checkout.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for path in files:
            rel = path.relative_to(ROOT)
            if not path.is_file() or "target" in rel.parts or rel.suffix == ".pyc":
                continue
            digest.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def revision():
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        # A checkout nested in another repository is not that repository.
        if pathlib.Path(top).resolve() == ROOT:
            return f"{head}+tree:{source_digest()}"
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return f"tree:{source_digest()}"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in [
        (ROOT / "Cargo.toml", ["-p", "gaia-cli", "--bin", "gaia"]),
        (ROOT / "perfbench" / "Cargo.toml", []),
    ]:
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", str(manifest)] + extra
        # Cargo's progress goes to stderr; stdout is reserved for results.
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(command)}")


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    release = target / "release"
    command = [
        str(release / "perfbench"),
        *sys.argv[1:],
        "--gaia", str(release / "gaia"),
        "--work", str(target / "perfbench-work"),
        "--commit", revision(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
