"""Runs CLI process pipes for the benchmark and reports what each cost.

The benchmark starts this small process once per run and sends it every
operation.  It exists because Linux carries the high-water RSS of the
process that spawns a child into the child's ``ru_maxrss``: spawning from
the benchmark itself, which holds inputs and parsed outputs, would report
the benchmark's memory instead of the CLI's.  This process imports only the
standard library, so its own high-water mark stays far below any CLI run.

Protocol, one JSON object per line each way:
request ``{"commands": [[arg, ...], ...], "stdout": path, "stderr": path,
"timeout_s": seconds}``; each command runs as ``python -m stagedtree.cli``,
piped into the next, and the last one's stdout goes to ``stdout``.  Reply
``{"rc": exit code, "wall_s": spawn of the first to exit of the last,
"cpu_s": user+sys over the pipe, "rss_mb": max ru_maxrss over the pipe}``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_pipe(commands, stdout_path, stderr_path, timeout_s):
    procs = []
    usage = []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        timer = threading.Timer(timeout_s, lambda: [p.kill() for p in procs])
        start = time.perf_counter()
        try:
            stdin = subprocess.DEVNULL
            for i, args in enumerate(commands):
                last = i == len(commands) - 1
                p = subprocess.Popen(
                    [sys.executable, "-m", "stagedtree.cli", *args],
                    stdin=stdin, stdout=out if last else subprocess.PIPE, stderr=err,
                )
                if procs:
                    procs[-1].stdout.close()
                procs.append(p)
                stdin = p.stdout
            timer.start()
        finally:
            if sys.exc_info()[0] is not None:
                for p in procs:
                    p.kill()
            for p in procs:
                _, status, ru = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
                usage.append(ru)
            wall = time.perf_counter() - start
            timer.cancel()
    return {
        "rc": next((p.returncode for p in reversed(procs) if p.returncode != 0), 0),
        "wall_s": wall,
        "cpu_s": sum(ru.ru_utime + ru.ru_stime for ru in usage),
        "rss_mb": max(ru.ru_maxrss for ru in usage) / 1024.0,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_pipe(req["commands"], req["stdout"], req["stderr"], req["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
