#!/usr/bin/env python3
"""Build and run the tamp benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --alt-paths --seed <n>

Builds the `tamp-perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs `perfbench` for
`--trace 0` or `perfbench-traced` for `--trace 1`, checks that the
result line carries exactly the metrics BENCHMARK.json names, and checks
that the run left every file of the checkout unchanged. The last line
of standard output is the result object; earlier lines are details.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
SKIP_DIRS = {".git", "target", ".bench_build"}


def tree_state(root, skip_abs):
    """(size, mtime) of every file under root, minus build outputs."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d
            for d in dirnames
            if d not in SKIP_DIRS and os.path.abspath(os.path.join(dirpath, d)) != skip_abs
        ]
        for f in filenames:
            p = os.path.join(dirpath, f)
            try:
                st = os.lstat(p)
            except FileNotFoundError:
                continue
            state[os.path.relpath(p, root)] = (st.st_size, st.st_mtime_ns)
    return state


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--alt-paths", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    before = tree_state(root, target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml"), "--bins"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode or 2)

    exe = os.path.join(target, "release", "perfbench-traced" if args.trace == "1" else "perfbench")
    cmd = [exe, "--seed", str(args.seed)]
    if args.alt_paths:
        cmd += ["--alt-paths"]
    else:
        if not args.workload:
            fail("--workload is required")
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds), "--trace", args.trace,
                "--out", os.path.join(target, "perfbench-out")]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}", run.returncode)
    if args.alt_paths:
        sys.stdout.write(run.stdout)
        return

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"last output line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace == "1" else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")

    after = tree_state(root, target)
    if after != before:
        changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
        print(f"perfbench/run.py: the run changed files of the checkout: {changed[:20]}", file=sys.stderr)
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
