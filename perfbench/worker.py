"""One measuring process of an in-process workload, started by ``run.py``.

    python3 perfbench/worker.py <workload> <seed> <seconds> <workdir>

It imports the program, builds its session and prints ``ready``.  With
``seconds`` 0 it stops there: ``run.py`` times such setup-only processes for
``setup_s`` on every workload (on ``catalog`` the session is the import
alone).  Otherwise it runs units of work for ``seconds`` and prints one JSON
line: per operation its seconds and problems, and per unit of work its
operation count and busy seconds.  ``run.py`` spreads a run over several of
these in turn, because each process settles into its own speed (see
README.md), and one process per run would report that speed rather than
the program's.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def main(argv) -> int:
    workload, seed, seconds, workdir = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    sys.path.insert(0, str(workloads.SRC))
    import qqasim.cli  # noqa: F401  (importing is part of getting ready)

    if workload == "verify-stream":
        session = workloads.VerifyStreamSession(workloads.build_stream(seed))
    elif workload == "cli-session":
        session = workloads.CliSession(seed, workloads.new_workdir(workdir, "cli"))
    print("ready", flush=True)
    if seconds == 0:
        return 0
    ops, units = [], []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        session.prepare()
        batch = session.run()
        units.append([len(batch), sum(op.seconds for op in batch)])
        ops += [[op.seconds, op.problems] for op in batch]
    print(json.dumps({"ops": ops, "units": units}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
