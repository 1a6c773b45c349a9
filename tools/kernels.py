"""Run tier-1 once under each OpenBLAS kernel and count what passes.

numpy's OpenBLAS, when built with ``DYNAMIC_ARCH``, picks its kernel for
the CPU when it loads, and ``OPENBLAS_CORETYPE`` overrides that choice for
one process.  This runs the whole test suite in a child process per
kernel, one at a time, each with a timeout, and prints the counts of each
kernel and the tests that failed under it:

    python tools/kernels.py

The exit status is 1 if any kernel has a failure, an error or a timeout.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")
TIMEOUT = 900  # seconds each kernel's run may take
_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped)")


def run(kernel: str) -> tuple:
    """``(counts, failed test ids)`` of tier-1 under ``kernel``; ``counts`` is ``None`` on a timeout."""
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, []
    lines = done.stdout.splitlines()
    counts = {"passed": 0, "failed": 0, "errors": 0, "skipped": 0}
    for number, kind in _COUNT.findall(lines[-1] if lines else ""):
        counts["errors" if kind == "error" else kind] += int(number)
    if done.returncode and not counts["failed"] and not counts["errors"]:
        counts["errors"] = 1  # pytest itself failed, with no summary line to read
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return counts, failed


def main() -> int:
    bad = False
    for kernel in KERNELS:
        counts, failed = run(kernel)
        if counts is None:
            print(f"{kernel:<12} timed out after {TIMEOUT} s", flush=True)
            bad = True
            continue
        print(f"{kernel:<12} {counts['passed']:>5} passed {counts['failed']:>3} failed "
              f"{counts['errors']:>3} errors {counts['skipped']:>3} skipped", flush=True)
        for test in failed:
            print(f"{'':<12} {test}", flush=True)
        bad = bad or bool(counts["failed"] or counts["errors"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
