#!/usr/bin/env python3
"""Build and run the UVE benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep-service --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is the cargo package next to this file. It is built in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then run with
the given arguments, pinned to one CPU with one malloc arena (see `run`);
its last line of standard output is the result JSON.
Build output goes to standard error. See NOTES.md for the workloads.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "uve-perfbench")


def run(binary, args, env, capture=False):
    """Runs the benchmark binary pinned to one CPU, the last this process
    may use, with one malloc arena; returns (exit code, stdout, stderr).

    On one CPU the service's threads hand each request on without
    cross-CPU wake-ups, whose cost on a virtual machine varies from run to
    run. With one arena, memory that the untimed preparation's threads
    freed is returned by `malloc_trim` before each round instead of staying
    resident in per-thread arenas by chance, which made the per-round peak
    RSS of identical work read from 12 to 78 MiB between runs."""
    cpu = max(os.sched_getaffinity(0))
    try:
        done = subprocess.run(
            [binary] + args,
            env=dict(env, MALLOC_ARENA_MAX="1"),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            stderr=subprocess.PIPE if capture else None,
            text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1, "", ""
    return done.returncode, done.stdout or "", done.stderr or ""


def self_test(binary, env):
    """Runs the unit tests, then checks that the simulated outputs of both
    workloads do not depend on the seed."""
    manifest = os.path.join(HERE, "Cargo.toml")
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    ok = unit.returncode == 0
    for workload in ("sweep-service", "sweep-cached"):
        seen = []
        for seed in (1, 2):
            args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
            code, out, err = run(binary, args, env, capture=True)
            if code != 0 or not out.strip():
                print(f"self-test: {workload} seed {seed} exited {code}\n{err}", file=sys.stderr)
                return False
            result = json.loads(out.strip().splitlines()[-1])
            digest = [l for l in err.splitlines() if "output digest" in l]
            metrics = result["metrics"]
            seen.append(
                (
                    result["correct"],
                    metrics["sim_cycles"]["value"],
                    metrics["paper_err_pct"]["value"],
                    digest,
                )
            )
        same = seen[0] == seen[1] and seen[0][0] is True and bool(seen[0][3])
        print(f"self-test: {workload}: {'ok' if same else 'FAILED'} {seen}", file=sys.stderr)
        ok &= same
    return ok


def main():
    env = cargo_env()
    binary = build(env)
    if binary is None:
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return 0 if self_test(binary, env) else 1
    code, _, _ = run(binary, sys.argv[1:], env)
    return code


if __name__ == "__main__":
    sys.exit(main())
