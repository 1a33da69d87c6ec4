"""Run one command and report its own wall time and resource use.

    python3 -I -S perfbench/launch.py REPORT -- COMMAND [ARG ...]

On Linux a child's peak-RSS figure starts at the resident size of the
process it was forked from, so a command started straight from the harness,
which holds prepared inputs, numpy and its own bookkeeping, would be charged
the harness's memory.  This launcher is a small interpreter without site
packages: the command it forks is charged only the launcher's few MB.

REPORT receives one JSON object: the command's exit code, wall time, user
and system CPU time (its reaped children included) and peak RSS in KiB.
"""

import json
import os
import sys
import time


def main() -> int:
    report, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({
            "exit": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "utime_s": usage.ru_utime,
            "stime_s": usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
