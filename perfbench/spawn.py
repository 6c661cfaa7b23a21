"""Runs the benchmark's `cloudaudit` commands from a small process.

A child's peak RSS (ru_maxrss) starts at the RSS of the process that spawned
it, so `run.py`, which holds the generated models and their ground truth,
does not spawn the commands itself: it starts this process first, while it
is still small, and sends it one JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout": 120}

For each it answers one line: {"code": exit code, "wall": seconds from spawn
to exit, "maxrss_kb": the child's own peak RSS from wait4}.  It exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
