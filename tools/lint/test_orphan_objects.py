#!/usr/bin/env python3
"""Pin orphan_objects.py's rule against synthetic `nm -A -P` output.

Run as a ctest (lint_orphan_objects_fixtures): a library member is
used when another archive member, an example or a bench references one
of its strong definitions; references from tests/ objects and shared
weak definitions do not count; members with nothing defined are
skipped. A rule that stops firing, or starts firing on a used module,
fails tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import orphan_objects  # noqa: E402

LIB = "build/libprosperity_core.a"

# One line per symbol, as `nm -A -P` prints them.
NM_OUTPUT = "\n".join([
    # engine: used by an example.
    f"{LIB}[engine.cc.o]: _ZN10prosperity6engineEv T 0 10",
    f"{LIB}[engine.cc.o]: _ZN10prosperity8registryEv U",
    # registry: used by engine, another member. Its hook into the
    # baseline is how a design with no includer outside src/ is used.
    f"{LIB}[registry.cc.o]: _ZN10prosperity8registryEv T 0 10",
    f"{LIB}[registry.cc.o]: _ZN10prosperity4hookEv U",
    f"{LIB}[baseline.cc.o]: _ZN10prosperity4hookEv T 0 10",
    # data-only member, used through a reference to its table.
    f"{LIB}[table.cc.o]: _ZN10prosperity5tableE R 0 40",
    "build/CMakeFiles/bench_x.dir/bench/bench_x.cc.o: "
    "_ZN10prosperity5tableE U",
    # orphan_test_only: only a test references it.
    f"{LIB}[orphan_test_only.cc.o]: _ZN10prosperity3oneEv T 0 10",
    "build/CMakeFiles/test_one.dir/tests/test_one.cc.o: "
    "_ZN10prosperity3oneEv U",
    # orphan_weak: shares only a weak inline definition with a user.
    f"{LIB}[orphan_weak.cc.o]: _ZN10prosperity4weakEv W 0 10",
    f"{LIB}[orphan_weak.cc.o]: _ZN10prosperity6strongEv T 0 10",
    "build/CMakeFiles/demo.dir/examples/demo.cc.o: "
    "_ZN10prosperity4weakEv W 0 10",
    # orphan_unreferenced: nobody names it at all.
    f"{LIB}[orphan_unreferenced.cc.o]: _ZN10prosperity4loneEv T 0 10",
    f"{LIB}[orphan_unreferenced.cc.o]: _ZN10prosperity6engineEv U",
    # empty tier TU: nothing defined, nothing to judge.
    f"{LIB}[simd_kernels_avx512.cc.o]: _ZN10prosperity6engineEv U",
    # the example that uses engine.
    "build/CMakeFiles/demo.dir/examples/demo.cc.o: "
    "_ZN10prosperity6engineEv U",
    "build/CMakeFiles/demo.dir/examples/demo.cc.o: main T 0 10",
]) + "\n"

EXPECTED_ORPHANS = [
    f"{LIB}[orphan_test_only.cc.o]",
    f"{LIB}[orphan_unreferenced.cc.o]",
    f"{LIB}[orphan_weak.cc.o]",
]

failures = []


def check(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'ok' if ok else 'FAIL'}  {label}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    if not ok:
        failures.append(label)


def run_cli(text: str) -> tuple:
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".nm", delete=False
    ) as tmp:
        tmp.write(text)
        path = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "orphan_objects.py"),
             "--nm-output", path],
            capture_output=True,
            text=True,
        )
    finally:
        os.unlink(path)
    return proc.returncode, proc.stdout


def main() -> int:
    orphans = orphan_objects.find_orphans(
        orphan_objects.parse_nm(NM_OUTPUT))
    check(f"orphans are exactly {EXPECTED_ORPHANS}",
          orphans == EXPECTED_ORPHANS, f"got {orphans}")

    code, out = run_cli(NM_OUTPUT)
    check("CLI exits 1 when an orphan exists", code == 1, f"got {code}")
    check("CLI names every orphan",
          all(name in out for name in EXPECTED_ORPHANS), out)

    used_only = "\n".join(
        line for line in NM_OUTPUT.splitlines() if "orphan_" not in line
    ) + "\n"
    code, out = run_cli(used_only)
    check("CLI exits 0 when every member is used", code == 0,
          f"got {code}: {out}")

    code, _ = run_cli("build/CMakeFiles/demo.dir/examples/demo.cc.o: "
                      "main T 0 10\n")
    check("CLI exits 2 when no archive member is listed", code == 2,
          f"got {code}")

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall orphan-object fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
