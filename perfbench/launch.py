"""Run one command and report the resource usage of its process tree.

    python3 perfbench/launch.py RUN_DIR TIMEOUT COMMAND...

The command runs in its own session with stdout and stderr in RUN_DIR, and
RUN_DIR/usage.json gets its exit status, wall time, CPU time of it and every
descendant it waited for, and the peak RSS of the largest of them.  After
TIMEOUT seconds the whole session is killed.

run.py starts the workload through this small process, not directly: Linux
carries the RSS high-water mark of the address space a process was forked
from into the child's ru_maxrss, so a child of the benchmark's own, larger
process would report at least that process's peak.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def drain_group(pgid: int) -> None:
    """Stop whatever the command left in its session (a crashed pool's
    workers) and wait, for at most two seconds, until none is left."""
    kill_group(pgid)
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main() -> None:
    run_dir, timeout, argv = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(max(timeout, 0.1), kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    drain_group(proc.pid)
    (run_dir / "usage.json").write_text(json.dumps({
        "ok": proc.returncode == 0,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
