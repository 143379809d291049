#!/usr/bin/env python3
"""Pin orphan_objects.py's rules against synthetic `nm -A -P` output.

Run as a ctest (lint_orphan_objects_fixtures). Objects: a library
member is used when another archive member, an example or a bench
references one of its strong definitions; references from tests/
objects and shared weak definitions do not count; members with
nothing defined are skipped. Symbols: a strong library definition
passes when some program's section-GC link keeps it, perfbench's
included; a test target is no program; weak definitions are not
judged; the allowlist exempts a symbol only with a reason and only
while no program keeps it and the library still defines it. A rule
that stops firing, or starts firing on used code, fails tier-1.
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

# Symbol mode: the archive's members, then what each link kept.
SYMBOL_LIBRARY = [
    f"{LIB}[engine.cc.o]: _ZN10prosperity6engineEv T 0 10",
    # only test_one keeps it.
    f"{LIB}[engine.cc.o]: _ZN10prosperity8testOnlyEv T 0 10",
    # a weak inline definition no link keeps: not judged.
    f"{LIB}[engine.cc.o]: _ZN10prosperity6inlineEv W 0 10",
    # only perfbench keeps it.
    f"{LIB}[replay.cc.o]: _ZN10prosperity6replayEv T 0 10",
    # only a test keeps it, and the allowlist exempts it.
    f"{LIB}[tiers.cc.o]: _ZN10prosperity4tierEv T 0 10",
]
KEPT = {
    "build/demo": ["_ZN10prosperity6engineEv T 400 10", "main T 0 10"],
    "build/test_one": ["_ZN10prosperity6engineEv T 400 10",
                       "_ZN10prosperity8testOnlyEv T 410 10",
                       "_ZN10prosperity4tierEv T 420 10",
                       "main T 0 10"],
    "build-perfbench/perfbench": ["_ZN10prosperity6replayEv T 400 10",
                                  "main T 0 10"],
}
TIER = "_ZN10prosperity4tierEv"
ALLOWLIST = f"""\
# comment lines and blank lines are skipped

{TIER} forced-tier tests only; the dispatch is going away
"""

failures = []


def check(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'ok' if ok else 'FAIL'}  {label}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    if not ok:
        failures.append(label)


def run_cli(text: str, *flags: str) -> tuple:
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".nm", delete=False
    ) as tmp:
        tmp.write(text)
        path = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "orphan_objects.py"),
             "--nm-output", path, *flags],
            capture_output=True,
            text=True,
        )
    finally:
        os.unlink(path)
    return proc.returncode, proc.stdout


def make_build_tree(root: str) -> tuple:
    """A build directory and a perfbench build directory as CMake lays
    them out: objects under CMakeFiles/<target>.dir/, each executable
    beside it. The library archive and the bench harness archive have
    no executable of their target's name."""
    def touch(path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()

    build = os.path.join(root, "build")
    perfbench = os.path.join(root, "build-perfbench")
    for obj in ("prosperity_core.dir/src/engine.cc.o",
                "prosperity_bench.dir/bench/bench_harness.cc.o",
                "demo.dir/examples/demo.cc.o",
                "test_one.dir/tests/test_one.cc.o"):
        touch(os.path.join(build, "CMakeFiles", obj))
    for exe in ("libprosperity_core.a", "libprosperity_bench.a",
                "demo", "test_one"):
        touch(os.path.join(build, exe))
    touch(os.path.join(perfbench, "CMakeFiles", "perfbench.dir",
                       "perfbench.cc.o"))
    touch(os.path.join(perfbench, "perfbench"))
    return build, perfbench


def symbol_text(programs: list, root: str) -> str:
    """What `nm -A -P` prints for the archive and these executables."""
    lines = list(SYMBOL_LIBRARY)
    for program in programs:
        name = os.path.relpath(program, root).replace(os.sep, "/")
        lines += [f"{name}: {line}" for line in KEPT[name]]
    return "\n".join(lines) + "\n"


def judged(text: str, allowlist: str) -> list:
    return [symbol for symbol, _ in orphan_objects.judge_symbols(
        orphan_objects.parse_nm(text),
        orphan_objects.read_allowlist(allowlist))]


def check_symbol_mode() -> None:
    with tempfile.TemporaryDirectory() as root:
        build, perfbench = make_build_tree(root)
        programs = (orphan_objects.linked_programs(build, LIB)
                    + orphan_objects.linked_programs(perfbench, LIB))
        expected = [os.path.join(build, "demo"),
                    os.path.join(perfbench, "perfbench")]
        check("the programs are every non-test executable, perfbench's "
              "included", programs == expected, f"got {programs}")
        text = symbol_text(programs, root)
        without_perfbench = symbol_text(programs[:1], root)

    found = judged(text, ALLOWLIST)
    check("a function only a test keeps fails, and only it",
          found == ["_ZN10prosperity8testOnlyEv"], f"got {found}")
    check("a symbol only perfbench keeps passes",
          "_ZN10prosperity6replayEv" not in found
          and "_ZN10prosperity6replayEv" in judged(without_perfbench,
                                                   ALLOWLIST), found)
    check("an allowlisted symbol with a reason passes",
          TIER not in found and TIER in judged(text, ""), found)
    check("weak definitions are not judged",
          "_ZN10prosperity6inlineEv" not in found, found)
    for label, allowlist, entry, why in (
        ("an allowlist entry with no reason fails", f"{TIER}\n", TIER,
         "no reason"),
        ("an allowlist entry whose symbol a program keeps fails",
         ALLOWLIST + "_ZN10prosperity6engineEv demo calls it\n",
         "_ZN10prosperity6engineEv", "a program keeps it"),
        ("an allowlist entry whose symbol is gone fails",
         ALLOWLIST + "_ZN10prosperity4goneEv it was deleted\n",
         "_ZN10prosperity4goneEv", "no longer defines it"),
    ):
        extra = [
            (symbol, message)
            for symbol, message in orphan_objects.judge_symbols(
                orphan_objects.parse_nm(text),
                orphan_objects.read_allowlist(allowlist))
            if symbol != "_ZN10prosperity8testOnlyEv"
        ]
        check(label,
              len(extra) == 1 and extra[0][0] == entry
              and why in extra[0][1], f"got {extra}")

    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".allow", delete=False
    ) as tmp:
        tmp.write(ALLOWLIST)
        allow_path = tmp.name
    try:
        code, out = run_cli(text, "--symbols", "--allowlist", allow_path)
        check("symbol CLI exits 1 and names the unkept symbol",
              code == 1 and "testOnly" in out, f"got {code}: {out}")
        kept_only = "\n".join(line for line in text.splitlines()
                              if "testOnly" not in line) + "\n"
        code, out = run_cli(kept_only, "--symbols", "--allowlist",
                            allow_path)
        check("symbol CLI exits 0 when every symbol is kept or exempt",
              code == 0, f"got {code}: {out}")
    finally:
        os.unlink(allow_path)


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

    check_symbol_mode()

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall orphan fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
