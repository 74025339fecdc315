#!/usr/bin/env python3
"""Checks bench/e2e result fingerprints against an expected table.

  python3 bench/e2e/run.py --smoke > smoke.txt
  python3 tools/check_e2e_fingerprints.py tools/e2e_smoke_fingerprints.txt smoke.txt

The expected file holds one `<workload> <fingerprint>` pair per line (`#`
starts a comment). The run output is read from the second argument, or from
stdin when it is omitted or `-`; its `<workload> info fingerprint <hex>`
lines are compared with the table. Exits 1 when a workload's fingerprint
differs, an expected workload is missing from the output, or the output
names a workload the table does not list.
"""

import sys


def read_expected(path):
    expected = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            workload, fingerprint = line.split()
            expected[workload] = fingerprint
    return expected


def read_actual(stream):
    actual = {}
    for line in stream:
        parts = line.split()
        if len(parts) == 4 and parts[1:3] == ["info", "fingerprint"]:
            actual[parts[0]] = parts[3]
    return actual


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    expected = read_expected(argv[1])
    if len(argv) == 3 and argv[2] != "-":
        with open(argv[2]) as f:
            actual = read_actual(f)
    else:
        actual = read_actual(sys.stdin)
    ok = True
    for workload, want in expected.items():
        got = actual.get(workload)
        if got == want:
            print("ok       %s %s" % (workload, got))
        else:
            print("MISMATCH %s expected %s got %s" % (workload, want, got))
            ok = False
    for workload in sorted(set(actual) - set(expected)):
        print("UNLISTED %s %s" % (workload, actual[workload]))
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
