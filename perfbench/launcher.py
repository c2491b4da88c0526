"""Starts the benchmark's child processes from a small process of its own.

On Linux a process's peak RSS (ru_maxrss) also counts the peak of the
address space that its exec replaced. Started straight from run.py, which
holds numpy and parsed reports, every child would report at least run.py's
own peak. This launcher imports nothing heavy, so the peak it passes on is
below that of any child it starts.

Protocol, one JSON object per line: requests on stdin
``{"argv": [...], "out": PATH, "err": PATH, "timeout": SECONDS}``, replies on
stdout ``{"wall_s": ..., "code": ..., "maxrss_kb": ...}``. It exits when
stdin closes. workloads.Launcher is the other end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], out_path: str, err_path: str, timeout: float) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["out"], request["err"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
