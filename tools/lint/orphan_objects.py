#!/usr/bin/env python3
"""Flag library code that no program uses, only tests.

A src/ module whose only caller is its own test compiles, passes its
test and is reached by nothing the repository ships. This check finds
such code from symbol tables rather than from #include lines: a design
reached only through the registry's register*Accelerator hooks has no
includer outside src/, yet it is used, and its symbols say so. It
judges at two granularities.

Objects (default). A member of the prosperity_core archive is an
orphan when none of the global symbols it defines is referenced by
another non-test object -- another archive member, an example, a
bench or the bench harness. Objects compiled from tests/ do not count
as users.

  defined     strong global definitions (nm types B C D G R S T).
              Weak definitions (W V u) do not count: inline functions
              and template instances are emitted into every object
              that uses them, so sharing one is not a reference.
  referenced  undefined in some other object (nm types U w v).

An archive member that defines no strong global symbol (a SIMD tier
translation unit the compiler could not target compiles to nothing)
has nothing to judge and is skipped.

Symbols (--symbols). Given a build in which every program was linked
at -O0 with -ffunction-sections -fdata-sections -Wl,--gc-sections, a
strong definition of the archive is kept by a program when that
program's executable still defines it after the linker dropped every
section it could not reach. A strong archive symbol that no program
keeps fails, unless the allowlist exempts it. A program is the
executable of any target under a --build-dir whose objects come from
no tests/ source; the archive's own target is not one. Weak
definitions are not judged. The allowlist has one entry a line, the
mangled symbol and then its one-line reason ('#' starts a comment
line); an entry with no reason, or whose symbol a program keeps or
the archive no longer defines, also fails. The link cannot see two
kinds of dead code: inline members defined in headers (weak, or not
emitted at all) and helpers with internal linkage (GCC's
-Wunused-function reports those).

Usage (the lint_orphan_objects ctest, after a build):
  orphan_objects.py --library build/libprosperity_core.a \\
                    --build-dir build [--nm nm]
  orphan_objects.py --symbols --library build-gc/libprosperity_core.a \\
                    --build-dir build-gc --build-dir build-gc-perfbench \\
                    --allowlist tools/lint/orphan_symbols.allow
  orphan_objects.py [--symbols] --nm-output FILE   # `nm -A -P` text

Object mode reads every *.o under BUILD_DIR/CMakeFiles/*.dir except
the archive's own target directory; test objects found there are read
and ignored by the same path rule the fixtures pin. Symbol mode reads
the executables linked from those directories. In fixture mode every
file in the text that is not an archive member counts as a program.

Exit status: 0 when nothing is flagged, 1 when anything is, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

DEFINED_TYPES = set("BCDGRST")
REFERENCE_TYPES = set("Uwv")


def parse_nm(text: str) -> dict:
    """Parse `nm -A -P` output into {object: (defined, referenced)}.

    Lines look like `path.o: name T value size`, with archive members
    written `lib.a[member.o]: ...`.
    """
    objects = {}
    for line in text.splitlines():
        if ": " not in line:
            continue
        name, _, rest = line.rpartition(": ")
        fields = rest.split()
        if len(fields) < 2:
            continue
        symbol, kind = fields[0], fields[1]
        defined, referenced = objects.setdefault(name, (set(), set()))
        if kind in DEFINED_TYPES:
            defined.add(symbol)
        elif kind in REFERENCE_TYPES:
            referenced.add(symbol)
    return objects


def is_library(name: str) -> bool:
    return name.endswith("]") and "[" in name


def is_test(name: str) -> bool:
    # CMake mirrors the source tree under each target's directory:
    # CMakeFiles/<target>.dir/tests/<file>.cc.o.
    return ".dir/tests/" in name.replace(os.sep, "/")


def find_orphans(objects: dict) -> list:
    """Archive members none of whose definitions another non-test
    object references, sorted by name."""
    orphans = []
    for name, (defined, _) in sorted(objects.items()):
        if not is_library(name) or not defined:
            continue
        used = any(
            defined & referenced
            for other, (_, referenced) in objects.items()
            if other != name and not is_test(other)
        )
        if not used:
            orphans.append(name)
    return orphans


def find_unkept(objects: dict) -> dict:
    """Strong archive definitions that no program in `objects` (every
    file that is not an archive member) defines: {symbol: member}."""
    kept = set()
    for name, (defined, _) in objects.items():
        if not is_library(name):
            kept |= defined
    return {
        symbol: name
        for name, (defined, _) in sorted(objects.items())
        if is_library(name)
        for symbol in sorted(defined - kept)
    }


def read_allowlist(text: str) -> dict:
    """{symbol: reason} from allowlist text; a missing reason is ''."""
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            symbol, *reason = line.split(None, 1)
            entries[symbol] = reason[0] if reason else ""
    return entries


def judge_symbols(objects: dict, allowlist: dict) -> list:
    """One finding per unkept symbol the allowlist does not exempt and
    per allowlist entry that has no reason, is kept or is gone."""
    unkept = find_unkept(objects)
    library = set()
    for name, (defined, _) in objects.items():
        if is_library(name):
            library |= defined
    findings = [
        (symbol, f"{member}: no program keeps it; delete it, call it "
                 f"from a program or allowlist it with a reason")
        for symbol, member in unkept.items()
        if symbol not in allowlist
    ]
    for symbol, reason in sorted(allowlist.items()):
        if not reason:
            findings.append((symbol, "allowlist entry has no reason"))
        elif symbol not in library:
            findings.append((symbol, "allowlisted, but the library no "
                                     "longer defines it; drop the entry"))
        elif symbol not in unkept:
            findings.append((symbol, "allowlisted, but a program keeps "
                                     "it; drop the entry"))
    return findings


def demangle(symbols: list) -> list:
    """The symbols as c++filt prints them, or as given without it."""
    tool = shutil.which("c++filt")
    if not tool or not symbols:
        return symbols
    proc = subprocess.run([tool], input="\n".join(symbols),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return lines if len(lines) == len(symbols) else symbols


def target_objects(build_dir: str, library: str) -> dict:
    """{target: objects} for every BUILD_DIR/CMakeFiles/<target>.dir/
    except the archive target's own (its members come from the
    archive)."""
    library_dir = os.path.splitext(os.path.basename(library))[0]
    if library_dir.startswith("lib"):
        library_dir = library_dir[3:]
    library_dir += ".dir"
    cmake_files = os.path.join(build_dir, "CMakeFiles")
    targets = {}
    for target in sorted(os.listdir(cmake_files)):
        if not target.endswith(".dir") or target == library_dir:
            continue
        found = targets.setdefault(target[:-len(".dir")], [])
        for dirpath, _, filenames in os.walk(
            os.path.join(cmake_files, target)
        ):
            found.extend(
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith(".o")
            )
    return targets


def linked_programs(build_dir: str, library: str) -> list:
    """The executable BUILD_DIR/<target> of every target that has one
    and whose objects include no test source."""
    return [
        os.path.join(build_dir, target)
        for target, objects in target_objects(build_dir, library).items()
        if objects
        and not any(is_test(o) for o in objects)
        and os.path.isfile(os.path.join(build_dir, target))
    ]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="orphan_objects.py",
        description="flag library code only tests use "
        "(see file docstring)",
    )
    parser.add_argument("--library", help="the prosperity_core archive")
    parser.add_argument("--build-dir", action="append", default=[],
                        help="a CMake build directory (repeatable)")
    parser.add_argument("--nm", default="", help="nm binary (default: nm)")
    parser.add_argument(
        "--nm-output",
        metavar="FILE",
        help="fixture mode: read `nm -A -P` text instead of running nm",
    )
    parser.add_argument(
        "--symbols",
        action="store_true",
        help="judge symbols kept by the -O0 section-GC link of every "
        "program, not objects",
    )
    parser.add_argument(
        "--allowlist",
        metavar="FILE",
        help="symbol mode: exempted symbols, one '<symbol> <reason>' "
        "a line",
    )
    args = parser.parse_args(argv)

    if args.nm_output:
        with open(args.nm_output, encoding="utf-8") as f:
            text = f.read()
    else:
        if not args.library or not args.build_dir:
            parser.print_usage(sys.stderr)
            print("orphan_objects: need --library and --build-dir "
                  "(or --nm-output)", file=sys.stderr)
            return 2
        if not os.path.isfile(args.library):
            print(f"orphan_objects: no such archive: {args.library}",
                  file=sys.stderr)
            return 2
        files = []
        for build_dir in args.build_dir:
            if args.symbols:
                files += linked_programs(build_dir, args.library)
            else:
                for objects in target_objects(build_dir,
                                              args.library).values():
                    files += objects
        if args.symbols and not files:
            print("orphan_objects: no linked program under "
                  f"{', '.join(args.build_dir)}", file=sys.stderr)
            return 2
        proc = subprocess.run(
            [args.nm or "nm", "-A", "-P", args.library] + files,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(f"orphan_objects: nm failed: {proc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        text = proc.stdout

    objects = parse_nm(text)
    if not any(is_library(name) for name in objects):
        print("orphan_objects: no archive members in the nm output",
              file=sys.stderr)
        return 2

    if args.symbols:
        allowlist = {}
        if args.allowlist:
            with open(args.allowlist, encoding="utf-8") as f:
                allowlist = read_allowlist(f.read())
        findings = judge_symbols(objects, allowlist)
        names = demangle([symbol for symbol, _ in findings])
        for (symbol, why), name in zip(findings, names):
            print(f"symbol: {name}"
                  + (f" [{symbol}]" if name != symbol else "")
                  + f" -- {why}")
        if findings:
            print(f"\n{len(findings)} symbol finding(s)", file=sys.stderr)
            return 1
        print(f"orphan_objects: a program keeps every strong library "
              f"symbol ({len(allowlist)} allowlisted)")
        return 0

    orphans = find_orphans(objects)
    for name in orphans:
        print(f"orphan: {name} -- none of its "
              f"{len(objects[name][0])} defined symbols is used outside "
              f"tests/; delete the module or call it from a program")
    if orphans:
        print(f"\n{len(orphans)} orphan object(s)", file=sys.stderr)
        return 1
    print("orphan_objects: every library object has a non-test user")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
