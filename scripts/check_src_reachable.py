#!/usr/bin/env python3
"""Checks that every src/**/*.cpp is linked into a product program.

The product programs are mcs_cli and the examples. The check relinks each
of them with the linker's member trace on (GNU ld or lld: -Wl,-t,-t prints
every archive member a link pulls in) and
fails when a translation unit under src/ is pulled by none of them, or when
a product pulls a member of a bench- or test-only library. Standard
library only.

Each source is matched as a (library, object) pair, taken from the
add_library() lists of src/CMakeLists.txt: file names alone repeat across
libraries (analysis/metrics.cpp and obs/metrics.cpp both exist).

Usage:
  cmake -B build-reach -S . -DMCS_BUILD_TESTS=OFF -DMCS_BUILD_BENCH=OFF \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,-t,-t
  cmake --build build-reach -j
  python3 scripts/check_src_reachable.py build-reach

The script deletes the product binaries and relinks them one at a time, so
the traces of concurrent links cannot interleave.
"""

import argparse
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Libraries no product may link: the bench/test extensions and the tests'
# own oracles.
FORBIDDEN_LIBRARIES = {"mcs_ext", "mcs_test_support"}
# GNU ld prints a pulled member as `(DIR/libNAME.a)FILE.o`, lld as
# `DIR/libNAME.a(FILE.o)`.
MEMBER = re.compile(r"lib(\w+)\.a(?:\)([^\s()]+\.o)|\(([^\s()]+\.o)\))")


def src_objects():
    """Maps (library, object) -> source path for every add_library source."""
    text = (ROOT / "src" / "CMakeLists.txt").read_text()
    objects = {}
    for library, body in re.findall(r"add_library\((\w+)([^)]*)\)", text):
        for source in re.findall(r"\S+\.cpp", body):
            key = (library, pathlib.PurePosixPath(source).name + ".o")
            if key in objects:
                sys.exit(f"error: {library} has two sources named "
                         f"{key[1][:-2]}; the trace cannot tell them apart")
            objects[key] = "src/" + source
    return objects


def product_targets():
    """mcs_cli plus every example registered in examples/CMakeLists.txt."""
    text = (ROOT / "examples" / "CMakeLists.txt").read_text()
    examples = re.findall(r"^mcs_add_example\((\w+)", text, re.MULTILINE)
    return [("tools", "mcs_cli")] + [("examples", e) for e in examples]


def cache_value(build, name):
    cache = (build / "CMakeCache.txt").read_text()
    match = re.search(rf"^{name}:\w+=(.*)$", cache, re.MULTILINE)
    return match.group(1) if match else ""


def relink_traces(build):
    """Relinks each product and returns {target: set of (library, object)}."""
    pulled = {}
    for subdir, target in product_targets():
        (build / subdir / target).unlink(missing_ok=True)
        run = subprocess.run(
            ["cmake", "--build", str(build), "--target", target, "-j1"],
            capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"error: building {target} failed:\n{run.stdout}"
                     f"{run.stderr}")
        pulled[target] = {
            (library, ld_member or lld_member)
            for library, ld_member, lld_member in MEMBER.findall(run.stdout)}
        if not pulled[target]:
            sys.exit(f"error: the link of {target} printed no archive "
                     f"members; configure with "
                     f"-DCMAKE_EXE_LINKER_FLAGS=-Wl,-t,-t")
    return pulled


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build", type=pathlib.Path,
                        help="build directory configured as shown above")
    build = parser.parse_args().build
    for option in ("MCS_BUILD_TESTS", "MCS_BUILD_BENCH"):
        if cache_value(build, option).upper() not in ("OFF", "0", "FALSE"):
            sys.exit(f"error: configure {build} with -D{option}=OFF: a "
                     f"test or bench link would hide an unreached source")

    objects = src_objects()
    built = set(objects.values())
    failures = []
    for path in sorted(ROOT.glob("src/**/*.cpp")):
        relative = path.relative_to(ROOT).as_posix()
        if relative not in built:
            failures.append(f"unbuilt: {relative} is in no add_library() "
                            f"of src/CMakeLists.txt")

    pulled = relink_traces(build)
    reached = set().union(*pulled.values())
    for key, source in sorted(objects.items(), key=lambda kv: kv[1]):
        if key not in reached:
            failures.append(f"unreached: no product program pulls "
                            f"lib{key[0]}.a({key[1]}), built from {source}")
    for target, members in sorted(pulled.items()):
        for library, member in sorted(members):
            if library in FORBIDDEN_LIBRARIES:
                failures.append(f"forbidden: {target} pulls "
                                f"lib{library}.a({member})")

    for failure in failures:
        print(failure)
    print(f"{len(reached & objects.keys())} of {len(objects)} src/ "
          f"translation units reached from {len(pulled)} programs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
