#!/usr/bin/env python3
"""Build and run the provbench benchmark.

Harness form (what BENCHMARK.json's "command" runs, from the repo root):

    python3 provbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the Rust package next to this file (release, offline) into
$CARGO_TARGET_DIR, or provbench/target when that is unset, runs one
workload, and relays the binary's output; the last stdout line is the
result JSON.

Helper modes:

    python3 provbench/run.py steady --workload <name> [--runs 10] [--seed0 1] [--trace 0] [--same-seed]
        Run a workload N times with seeds seed0..seed0+N-1 (or N times with
        seed0 under --same-seed, which leaves only host noise) and print,
        per metric, the median, the quartiles and the IQR as a share of the
        median next to the bound from BENCHMARK.json. Exits non-zero when
        any metric's spread reaches its bound.

    python3 provbench/run.py selftest [--workload <name>]
        Run workloads with one answer deliberately corrupted and check that
        the run reports correct=false and ok_frac < 1.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk_tc", "circuits", "serve_rw"]


def build():
    """Build the benchmark; return the binary path or exit non-zero."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except FileNotFoundError:
        sys.exit("provbench: cargo not found")
    if done.returncode != 0:
        sys.exit("provbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "provbench")


def run_once(binary, args):
    """Run the binary once; return (exit code, parsed result or None)."""
    done = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def steady(binary, argv):
    workload = option(argv, "--workload", None)
    runs = int(option(argv, "--runs", "10"))
    seed0 = int(option(argv, "--seed0", "1"))
    trace = option(argv, "--trace", "0")
    same = "--same-seed" in argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for i in range(runs):
        seed = seed0 if same else seed0 + i
        start = time.monotonic()
        code, result = run_once(binary, ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", trace])
        if result is None or not result["correct"]:
            sys.exit(f"provbench: seed {seed} failed (exit {code}, result {result})")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.monotonic() - start:.1f} s): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{workload}: {runs} runs")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    within = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            within = within and spread < bound
        print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")
    return 0 if within else 1


def selftest(binary, argv):
    names = [option(argv, "--workload", None)] if "--workload" in argv else WORKLOADS
    failed = False
    for name in names:
        code, result = run_once(binary, ["--workload", name, "--seed", "1",
                                         "--seconds", "1", "--trace", "0", "--corrupt"])
        ok_frac = (result or {}).get("metrics", {}).get("ok_frac", {}).get("value")
        caught = result is not None and not result["correct"] and ok_frac is not None \
            and ok_frac < 1.0
        print(f"{name}: corrupted answer {'caught' if caught else 'MISSED'} "
              f"(ok_frac={ok_frac}, failed={(result or {}).get('failed')})")
        failed = failed or not caught
    return 1 if failed else 0


def main():
    argv = sys.argv[1:]
    mode = argv[0] if argv and not argv[0].startswith("--") else "run"
    if mode not in ("run", "steady", "selftest"):
        sys.exit(f"provbench: unknown mode {mode}")
    binary = build()
    if mode == "steady":
        return steady(binary, argv[1:])
    if mode == "selftest":
        return selftest(binary, argv[1:])
    return subprocess.run([binary, *argv], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
