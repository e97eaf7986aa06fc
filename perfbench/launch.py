"""Starts the benchmark's program processes for run.py.

On Linux a child's ``ru_maxrss`` starts from the high-water mark of the
process that started it, so run.py, which holds the inputs and the
outputs it checks, cannot start the processes it measures.  This process
stays small (standard library only): it reads one JSON request per line
on stdin and answers each with the exit code, wall time and peak RSS of
the child it ran.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["args"], stdout=out, stderr=err,
                env=request["env"], cwd=request["cwd"],
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {
            "code": proc.returncode,
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
