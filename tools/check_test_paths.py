#!/usr/bin/env python3
"""Hermetic-path gate for the test sources.

A test that writes to a fixed path such as "/tmp/torsim_x.csv" races
every other process that runs the same test at the same time (`ctest
-j`, `--repeat until-fail`, two checkouts on one machine). Tests take a
fresh directory from tests/temp_dir.hpp instead. This gate fails on any
string literal that starts with "/tmp/ in a C++ source under the given
directories. A bare "/tmp" (no trailing slash) names the directory
itself, not a file in it, and is allowed.

Usage:  check_test_paths.py DIR [DIR ...]

Prints one `path:line: ...` line per finding and exits 1 when there is
any, 0 when there is none, and 2 when a directory cannot be read.
"""

import os
import re
import sys

SUFFIXES = (".cpp", ".cc", ".hpp", ".h")
LITERAL = re.compile(r'"/tmp/')


def sources(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SUFFIXES):
                yield os.path.join(dirpath, name)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    findings = 0
    scanned = 0
    for root in argv[1:]:
        if not os.path.isdir(root):
            print(f"check_test_paths: {root}: not a directory",
                  file=sys.stderr)
            return 2
        for path in sources(root):
            scanned += 1
            with open(path, encoding="utf-8", errors="replace") as f:
                for number, line in enumerate(f, 1):
                    if LITERAL.search(line):
                        findings += 1
                        print(f"{path}:{number}: literal /tmp/ path; use "
                              "torsim::test_support::TempDir "
                              "(tests/temp_dir.hpp)")
    print(f"check_test_paths: scanned {scanned} files, "
          f"{findings} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
