#!/usr/bin/env python3
"""Build and run the perfbench binary from the root of a checkout.

Usage:
    python3 perfbench/run.py --workload fig9|fig8-baselines|serve-sweep \
        --seed N --seconds S --trace 0|1 [--quick]

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, and prints the
binary's output with its result JSON as the last line. A copy of the
result with its provenance (SIMD tier, compiler, nproc, engine workers,
seed, source revision) goes to <build dir>/results/. Exits non-zero
when the build fails, the binary fails, or any output is wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_revision(root: Path) -> str:
    """The checkout's git revision when it is a git work tree, else a
    digest of the sources the benchmark builds and reads."""
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "campaigns", "models",
                "tests/golden", "perfbench"):
        base = root / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig9", "fig8-baselines", "serve-sweep"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size workloads (self-test)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        log("run from the root of a repository checkout (no src/ here)")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"

    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", str(build_dir / "out"),
               "--revision", source_revision(root)]
    if args.quick:
        command.append("--quick")
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if not lines:
        log(f"perfbench printed nothing (exit {run.returncode})")
        return run.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        log(f"perfbench gave no result line (exit {run.returncode})")
        return run.returncode or 4

    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({"provenance": provenance,
                                  "result": result}, indent=2) + "\n")

    for line in lines[:-1]:
        print(line)
    print(f"result saved to {record}")
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
