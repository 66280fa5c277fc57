"""Start the cli-cold request processes, one at a time, from a small process.

Usage: python -S launcher.py OUT_FILE ERR_FILE TIMEOUT_S
Reads one JSON command list per stdin line, runs it with stdout and stderr
sent to OUT_FILE and ERR_FILE, and answers with one JSON line
``[exit code, ns, ru_maxrss in KiB]``.  The exit code is a string when the
process ran past TIMEOUT_S and was killed.

A child's ru_maxrss also counts the resident memory of the process that
spawned it, so requests are spawned from here (about 10 MB, stdlib only)
rather than from the worker, which has relbgg and numpy loaded.  The figure
for a request is therefore max(this launcher, the request process).
"""

import json
import os
import select
import sys
import time


def run(cmd, out_path: str, err_path: str, timeout: float):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    # a pidfd wakes us at exit, with no polling interval added to the latency
    pidfd = os.pidfd_open(pid)
    try:
        exited = select.select([pidfd], [], [], timeout)[0]
    finally:
        os.close(pidfd)
    if not exited:
        os.kill(pid, 9)
    _, status, usage = os.wait4(pid, 0)
    ns = time.perf_counter_ns() - start
    rc = os.waitstatus_to_exitcode(status) if exited else f"timed out after {timeout:g} s"
    return rc, ns, usage.ru_maxrss


def main() -> int:
    out_path, err_path, timeout = sys.argv[1], sys.argv[2], float(sys.argv[3])
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line), out_path, err_path, timeout)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
