"""Run one program and record its own wall time, CPU time and peak RSS.

The benchmark starts every labelkit command through this small process
instead of directly. Linux carries the spawning process's peak RSS into the
child's ``ru_maxrss`` across exec, so a child started by the benchmark
process (which holds the generated corpus) would report the benchmark's
memory instead of its own.

Usage: python3 -I perfbench/launch.py RESULT_JSON PROGRAM [ARGS...]
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def stop(signum, frame):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024.0, "status": os.waitstatus_to_exitcode(status)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
