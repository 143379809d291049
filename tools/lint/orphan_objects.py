#!/usr/bin/env python3
"""Flag library objects that no program uses, only tests.

A src/ module whose only caller is its own test compiles, passes its
test and is reached by nothing the repository ships. This check finds
such modules from the symbol tables of the built objects rather than
from #include lines: a design reached only through the registry's
register*Accelerator hooks has no includer outside src/, yet it is
used, and its symbols say so.

Rule: a member of the prosperity_core archive is an orphan when none
of the global symbols it defines is referenced by another non-test
object -- another archive member, an example, a bench or the bench
harness. Objects compiled from tests/ do not count as users.

  defined     strong global definitions (nm types B C D G R S T).
              Weak definitions (W V u) do not count: inline functions
              and template instances are emitted into every object
              that uses them, so sharing one is not a reference.
  referenced  undefined in some other object (nm types U w v).

An archive member that defines no strong global symbol (a SIMD tier
translation unit the compiler could not target compiles to nothing)
has nothing to judge and is skipped.

Usage (the lint_orphan_objects ctest, after a build):
  orphan_objects.py --library build/libprosperity_core.a \\
                    --build-dir build [--nm nm]
  orphan_objects.py --nm-output FILE    # fixture mode: `nm -A -P` text

Consumer objects are every *.o under BUILD_DIR/CMakeFiles/*.dir except
the archive's own target directory; test objects found there are read
and ignored by the same path rule the fixtures pin.

Exit status: 0 when no member is an orphan, 1 when any is, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import os
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


def consumer_objects(build_dir: str, library: str) -> list:
    """Every object under BUILD_DIR/CMakeFiles/<target>.dir/, except
    the archive target's own (its members come from the archive)."""
    library_dir = os.path.splitext(os.path.basename(library))[0]
    if library_dir.startswith("lib"):
        library_dir = library_dir[3:]
    library_dir += ".dir"
    cmake_files = os.path.join(build_dir, "CMakeFiles")
    found = []
    for target in sorted(os.listdir(cmake_files)):
        if not target.endswith(".dir") or target == library_dir:
            continue
        for dirpath, _, filenames in os.walk(
            os.path.join(cmake_files, target)
        ):
            found.extend(
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith(".o")
            )
    return found


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="orphan_objects.py",
        description="flag library objects only tests use "
        "(see file docstring)",
    )
    parser.add_argument("--library", help="the prosperity_core archive")
    parser.add_argument("--build-dir", help="the CMake build directory")
    parser.add_argument("--nm", default="", help="nm binary (default: nm)")
    parser.add_argument(
        "--nm-output",
        metavar="FILE",
        help="fixture mode: read `nm -A -P` text instead of running nm",
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
        proc = subprocess.run(
            [args.nm or "nm", "-A", "-P", args.library]
            + consumer_objects(args.build_dir, args.library),
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
