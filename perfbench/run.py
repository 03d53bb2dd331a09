#!/usr/bin/env python3
"""Builds and runs the mxn end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that builds the repository's crates from source into
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; this script adds
peak_rss_mib, the benchmark process's peak resident set. With --trace 1 they
are the per-layer ones.

--workload all runs every workload in turn and prints a table of the
end-to-end metrics, with failed_frac and the printed-only op_p99_us.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["couple_inproc", "couple_uds", "prmi_small", "elastic_cycle"]
# A run must end within 180 s; the benchmark is killed a little before.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        result = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run cargo: {e}")
    if result.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {result.returncode}")
    return os.path.join(target, "release", "perfbench")


def l2_bytes():
    """Per-core L2 size as the C library reports it, 0 if unknown."""
    try:
        out = subprocess.run(["getconf", "LEVEL2_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else 0
    except (OSError, subprocess.SubprocessError):
        return 0


def run_one(binary, workload, seed, seconds, trace, l2):
    """Runs one workload; returns (exit code, report dict or None, p99 or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--l2-bytes", str(l2)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        lines = proc.stdout.read().splitlines()
        proc.stdout.close()
        # wait4 reaps the child and reports its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    p99 = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("op_p99_us "):
            p99 = float(line.split()[1])
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    if report is not None and trace == 0:
        # ru_maxrss is in KiB on Linux.
        report["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    return proc.returncode, report, p99


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    l2 = l2_bytes()
    if args.workload != "all":
        code, report, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace, l2)
        if report is None:
            sys.exit(f"run.py: {args.workload} printed no result (exit code {code})")
        print(json.dumps(report))
        sys.exit(code)

    codes, rows, merged = [], [], {}
    for w in WORKLOADS:
        code, report, p99 = run_one(binary, w, args.seed, args.seconds, args.trace, l2)
        codes.append(code)
        if report is None:
            rows.append((w, None, None))
            continue
        rows.append((w, report, p99))
        for name, m in report["metrics"].items():
            merged[f"{w}.{name}"] = m
    print()
    if args.trace == 0:
        names = ["op_p50_us", "op_p90_us", "op_p99_us", "ops_per_s", "failed_frac", "setup_s",
                 "peak_rss_mib"]
        units = ["us", "us", "us", "1/s", "frac", "s", "MiB"]
        print(f"{'workload':<16}" + "".join(f"{n + ' (' + u + ')':>22}" for n, u in zip(names, units)))
        for w, r, p99 in rows:
            if r is None:
                print(f"{w:<16} no result")
                continue
            vals = {k: m["value"] for k, m in r["metrics"].items()}
            vals["failed_frac"] = r["failed"] / max(r["attempted"], 1)
            vals["op_p99_us"] = p99 if p99 is not None else float("nan")
            print(f"{w:<16}" + "".join(f"{vals.get(n, float('nan')):>22.4f}" for n in names))
    attempted = sum(r["attempted"] for _, r, _ in rows if r)
    failed = sum(r["failed"] for _, r, _ in rows if r)
    correct = all(r and r["correct"] for _, r, _ in rows)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": merged}))
    sys.exit(next((c for c in codes if c != 0), 0 if correct else 1))


if __name__ == "__main__":
    main()
