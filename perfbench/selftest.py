#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--quick (a few lineups, a small catalogue), untraced and traced, and
checks that:
  * each run exits 0 and reports correct=true with no failed operation;
  * every end-to-end metric (untraced) and every per-layer metric
    (traced) is printed by name with its unit and is in the result JSON;
  * the traced run's Chrome trace passes tools/ci/check_trace.py;
  * the replay's per-layer self times sum to the replay's wall time;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py fails without printing a result.
Exit status 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SEED = 7


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick"], cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(root: Path, bench: dict, workload: str, trace: int,
              build_dir: Path) -> list[str]:
    where = f"{workload} trace={trace}"
    run = run_bench(root, workload, trace)
    if run.returncode != 0:
        return [f"{where}: exit {run.returncode}\n{run.stderr[-2000:]}"]
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    findings = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        findings.append(f"{where}: result {result}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            findings.append(f"{where}: {name} [{unit}] missing from result")
        if not any(line.startswith(f"metric {name} = ") and
                   line.endswith(f" {unit}") for line in lines):
            findings.append(f"{where}: {name} not printed with unit {unit}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        findings.append(f"{where}: result metrics differ from BENCHMARK.json")
    if not trace:
        return findings

    trace_path = build_dir / "out" / f"trace-{workload}-seed{SEED}.json"
    check = subprocess.run(
        [sys.executable, "tools/ci/check_trace.py", str(trace_path),
         "--require-name", "replay", "--require-cat", "gen"],
        cwd=root, capture_output=True, text=True)
    if check.returncode != 0:
        findings.append(f"{where}: check_trace: {check.stdout}")
    extra = json.loads(trace_path.read_text())["perfbench"]
    wall, self_sum = extra["replay_wall_s"], extra["replay_self_sum_s"]
    if abs(self_sum - wall) > 1e-6 * max(wall, 1e-9) + 1e-9:
        findings.append(f"{where}: replay self times sum to {self_sum} s, "
                        f"its wall time is {wall} s")
    return findings


def check_bare_directory(root: Path, build_dir: Path) -> list[str]:
    """run.py must fail cleanly where the program's sources are absent."""
    bare = build_dir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(root / "perfbench", bare / "perfbench")
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig9", "--seed",
         str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    last = run.stdout.splitlines()[-1] if run.stdout.strip() else ""
    if run.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {run.returncode}, last line {last!r}"]
    return []


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir if build_dir.is_absolute()
                 else root / build_dir) / "perfbench"
    findings = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            findings += check_run(root, bench, workload, trace, build_dir)
            print(f"selftest: {workload} trace={trace} done", flush=True)
    findings += check_bare_directory(root, build_dir)
    for finding in findings:
        print(f"selftest: FAIL {finding}")
    print(f"selftest: {'ok' if not findings else f'{len(findings)} failure(s)'}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
