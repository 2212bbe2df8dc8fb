"""Run one command; report its own exit status, wall time and rusage.

    python perfbench/launch.py REPORT_FILE COMMAND...

Linux carries the peak resident size of the process a child was spawned
from into the child's ``ru_maxrss`` (the spawner's memory is mapped until
the exec).  The harness grows as it parses outputs, so it starts every op
through this launcher, which stays near the size of a bare interpreter:
the peak it reports is the command's own.  The command inherits stdin,
stdout and stderr.  The report is one line: exit status, wall seconds,
user+sys CPU seconds and peak RSS in KiB.
"""

import os
import sys
import time


def main() -> int:
    report, command = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    with open(report, "w") as f:
        f.write(f"{code} {wall!r} {usage.ru_utime + usage.ru_stime!r} "
                f"{usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
