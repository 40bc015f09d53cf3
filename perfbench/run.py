#!/usr/bin/env python3
"""Run one perfbench workload against `ledgerd` built from this checkout.

    python3 perfbench/run.py --workload ingest|audit_read|mixed \
        --seed N --seconds S --trace 0|1 [--mixed-rate R]

Builds `ledgerd` (the repository workspace) and the benchmark runner
(`perfbench/`, a package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then starts it from
the checkout root. The runner's stdout is passed through: its last line
is the result object. Scratch data goes under `.perfbench_work/`.
Exits non-zero if the build fails, a correctness check fails, or the
run outlives its deadline.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One run, set-up included, must end well inside three minutes.
RUN_DEADLINE_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git commit when the checkout is a git work tree, else a digest
    of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ledgerdb-server", "--bin", "ledgerd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["ingest", "audit_read", "mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    # The `mixed` writer's appends/s; the command in BENCHMARK.json pins it.
    ap.add_argument("--mixed-rate", type=float)
    args = ap.parse_args()
    if args.workload == "mixed" and not args.mixed_rate:
        fail("--workload mixed needs --mixed-rate")

    for needed in ["Cargo.toml", os.path.join("crates", "server", "Cargo.toml")]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env)

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--mixed-rate", str(args.mixed_rate or 0),
        "--ledgerd", os.path.join(target, "release", "ledgerd"),
        "--work", work,
        "--rev", source_rev(),
    ]
    # A session of its own, so a deadline kill also reaches ledgerd.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_DEADLINE_S} s", 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
