#!/usr/bin/env python3
"""Fails when a ctest -R filter in the CI workflow names no existing test.

Usage: check_ci_filters.py <workflow.yml> <ctest build dir>

`ctest -R` with a pattern that matches nothing prints "No tests were
found!!!" and exits 0, so a filter left behind after a test was renamed or
deleted silently stops running anything. This script splits every -R
pattern in the workflow at its `|`s and requires each alternative to
match (regex search, as ctest does) at least one test name listed by
`ctest -N`. The patterns must therefore keep `|` out of groups.

Exit code 0 when every alternative matches, 1 listing the dead ones.
"""

import re
import subprocess
import sys

FILTER = re.compile(r"""-R\s+(?:'([^']*)'|"([^"]*)"|(\S+))""")
TEST_LINE = re.compile(r"^\s*Test\s+#\d+: (.*)$")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    workflow, build_dir = argv[1], argv[2]
    listing = subprocess.run(
        ["ctest", "--test-dir", build_dir, "-N"],
        check=True, capture_output=True, text=True).stdout
    names = [m.group(1) for m in map(TEST_LINE.match, listing.splitlines())
             if m]
    if not names:
        print(f"no tests listed by ctest -N in {build_dir}")
        return 1

    dead = []
    with open(workflow) as f:
        for lineno, line in enumerate(f, 1):
            if re.match(r"\s*(#|- name:)", line):
                continue  # prose, not a command
            for match in FILTER.finditer(line):
                pattern = next(g for g in match.groups() if g is not None)
                for alt in pattern.split("|"):
                    if not any(re.search(alt, n) for n in names):
                        dead.append(f"{workflow}:{lineno}: '{alt}' "
                                    f"(in -R '{pattern}')")
    if dead:
        print("ctest -R alternatives that match no test:")
        print("\n".join("  " + d for d in dead))
        return 1
    print(f"every ctest -R alternative matches one of {len(names)} tests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
