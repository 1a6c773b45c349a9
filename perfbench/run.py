"""Benchmark of qqasim: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload catalog|verify-stream|cli-session \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src/`` (and child processes get ``src/`` on ``PYTHONPATH``), so nothing
needs installing.  With ``--trace 0`` it measures the end-to-end metrics with
no instrumentation, spreading the in-process workloads over several fresh
measuring processes (``worker.py``) run one after another, and times
``setup_s`` in fresh setup-only processes spread over the run.  With
``--trace 1`` it alternates an untraced and a traced unit of the same work
in this process and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads


WORKLOADS = ("catalog", "verify-stream", "cli-session")
HERE = Path(__file__).resolve().parent
#: Measuring processes a run of ``verify-stream`` or ``cli-session`` is spread over.
WORKERS = 8
#: Setup-only processes started before each measuring process or catalog
#: pass, so that ``setup_s`` samples the whole run, not only its start.  A
#: run gets 16 samples on the in-process workloads, about 14 on ``catalog``.
SETUPS_BEFORE = {"catalog": 2, "verify-stream": 1, "cli-session": 1}
UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
#: Work counts of one catalog pass at the commit that introduced this benchmark.
SEED_COUNTS = {"simulator.run_all.calls": 7146, "simulator.verify.calls": 992,
               "catalog.generate_set.calls": 11}
#: What one operation is, per workload, for the printed report.
OPERATION = {"catalog": "catalog process", "verify-stream": "pass over the stream",
             "cli-session": "command"}


def cpu_ticks():
    """(stolen, total) CPU ticks of the whole machine so far, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment(load_at_start, ticks_at_start) -> dict:
    """What the measured numbers depend on.  No thread variable is set here."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "thread_variables": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": load_at_start,
        "cpu_steal_frac": steal_fraction(ticks_at_start),
    }


def steal_fraction(ticks_at_start):
    """Share of the machine's CPU time the hypervisor took since ``ticks_at_start``."""
    now = cpu_ticks()
    if now is None or ticks_at_start is None or now[1] == ticks_at_start[1]:
        return None
    return (now[0] - ticks_at_start[0]) / (now[1] - ticks_at_start[1])


def tail(values: list):
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned, labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.2f}"


def quartiles(values: list) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (quartiles {q1:.6g}..{q3:.6g})"


def peak_rss_mb() -> float:
    """Peak RSS of the largest process that ran the program, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def start_worker(workload: str, seed: int, seconds: float, workdir: Path):
    """A ``worker.py`` process and its time from start to ready; its output is still to read."""
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds),
               str(workdir)]
    start = time.perf_counter()
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        ready = worker.stdout.readline()
        setup_s = time.perf_counter() - start
        output, _ = worker.communicate(timeout=150)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if worker.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{workload} worker failed with exit code {worker.returncode}")
    return setup_s, output


def run_workers(workload: str, seed: int, seconds: float, workdir: Path):
    """Spread the run over ``WORKERS`` measuring processes, one after another.

    Each is preceded by ``SETUPS_BEFORE`` setup-only processes.  Returns
    every process's time from start to ready, the operations, and
    ``(operations, busy seconds)`` per unit of work.  ``verify-stream`` uses
    the same stream in each process; ``cli-session`` gives each its own script.
    """
    setups, ops, units = [], [], []
    for k in range(WORKERS):
        sub_seed = seed if workload == "verify-stream" else seed * WORKERS + k
        setups += [start_worker(workload, sub_seed, 0, workdir / f"setup{k}-{j}")[0]
                   for j in range(SETUPS_BEFORE[workload])]
        setup_s, output = start_worker(workload, sub_seed, seconds / WORKERS,
                                       workdir / f"worker{k}")
        setups.append(setup_s)
        result = json.loads(output.strip().splitlines()[-1])
        ops += [workloads.Op(op_s, problems) for op_s, problems in result["ops"]]
        units += [tuple(unit) for unit in result["units"]]
    return setups, ops, units


def distinct_per_application(session) -> float:
    """Distinct functions per application, as the traced catalog pass printed them; else 0."""
    _, distinct, total = getattr(session, "summary", ({}, None, None))
    return distinct / total if distinct and total else 0.0


def algorithms_in(workload: str, ops: list) -> int:
    """The base of ``sims_per_algorithm``: applications on catalog, else operations."""
    return workloads.APPLICATIONS if workload == "catalog" else len(ops)


def measured_run(workload: str, seed: int, seconds: float, workdir: Path, report: list):
    if workload == "catalog":
        session = workloads.CatalogSession(workdir)
        setups, ops, units = [], [], []
        start = time.perf_counter()
        while not units or time.perf_counter() - start < seconds:
            # The catalog's setup is importing the CLI.
            setups += [start_worker(workload, seed, 0, workdir)[0]
                       for _ in range(SETUPS_BEFORE[workload])]
            session.prepare()
            batch = session.run()
            units.append((len(batch), sum(op.seconds for op in batch)))
            ops += batch
    else:
        setups, ops, units = run_workers(workload, seed, seconds, workdir)
    latencies = [op.seconds for op in ops]
    unit_s = [busy for _, busy in units]
    # What a user waits for: a catalog process, a command, or a whole pass
    # verifying the stream (one verify call per algorithm).
    waits = unit_s if workload == "verify-stream" else latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(waits) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    ready = "importing qqasim.cli" if workload == "catalog" else "getting ready to measure"
    report.append(f"setup: median of {len(setups)} fresh processes {ready}{quartiles(setups)}")
    report.append(f"operation: one {OPERATION[workload]}; op_p50_ms is the median of "
                  f"{len(waits)}{quartiles([w * 1e3 for w in waits])}")
    tail_s, tail_label = tail(latencies)
    report.append(f"{len(ops)} checked operations in {len(units)} units of work; the tail "
                  f"(printed, not gated: see README) is {tail_s * 1e3:.4f} ms, the {tail_label}")
    if workload == "catalog":
        report.append(f"catalog_s: {metrics['op_p50_ms'] / 1e3:.6f} s (median of {len(ops)} "
                      f"processes)")
    elif workload == "verify-stream":
        rates = [count / busy for count, busy in units]
        report.append(f"algorithms_per_s: {statistics.median(rates):.4f} 1/s (median over "
                      f"{len(units)} passes{quartiles(rates)}); one verify call: median "
                      f"{statistics.median(latencies) * 1e3:.4f} ms")
    else:
        report.append(f"cmd_p50_ms: {metrics['op_p50_ms']:.4f} ms; cmd_tail_ms: "
                      f"{tail_s * 1e3:.4f} ms ({tail_label} of {len(ops)} commands)")
    return ops, metrics


def traced_run(workload: str, seed: int, seconds: float, workdir: Path, report: list):
    import qqasim.cli  # noqa: F401

    if workload == "verify-stream":
        stream = workloads.build_stream(seed)
        plain, traced = (workloads.VerifyStreamSession(stream) for _ in range(2))
    elif workload == "cli-session":
        plain, traced = (workloads.CliSession(seed, workloads.new_workdir(workdir, name))
                         for name in ("plain", "traced"))
    else:
        plain, traced = (workloads.CatalogSession(workdir, in_process=True) for _ in range(2))
    tracer = tracing.Tracer()
    ops, plain_s, traced_s, units, seen = [], [], [], [], set()
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        plain.prepare()
        batch = plain.run()
        plain_s.append(sum(op.seconds for op in batch))
        ops += batch
        traced.prepare()
        tracer.reset()
        with tracing.traced(tracer):
            batch = traced.run()
        traced_s.append(sum(op.seconds for op in batch))
        ops += batch
        units.append(tracing.layer_metrics(tracer, algorithms_in(workload, batch),
                                           distinct_per_application(traced)))
        seen |= tracing.shapes_seen(tracer)
    metrics = {name: sum(unit.get(name, 0) for unit in units) / len(units) for name in units[0]}
    metrics["trace.untraced_s"] = statistics.median(plain_s)
    metrics["trace.traced_s"] = statistics.median(traced_s)
    metrics["trace.overhead"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    report.append(f"traced: {len(units)} traced units, each paired with an untraced one; "
                  f"overhead {metrics['trace.overhead']:.3f} = traced {metrics['trace.traced_s']:.4f} s"
                  f" / untraced {metrics['trace.untraced_s']:.4f} s (medians per unit)")
    report.append(f"run_all shapes seen: {', '.join(sorted(seen))}")
    if workload in ("catalog", "verify-stream"):
        counts = {k for k in units[0] if k.endswith((".calls", ".constructions"))}
        if any(unit[k] != units[0][k] for unit in units for k in counts):
            ops.append(workloads.Op(0.0, ["work counts differ between identical traced units"]))
    if workload == "catalog":
        for name, seed_value in SEED_COUNTS.items():
            value = metrics[name]
            note = "as at the seed" if value == seed_value else f"seed had {seed_value}"
            report.append(f"exact count {name} = {value:g} per pass ({note})")
    return ops, metrics


def unit(name: str) -> str:
    return UNITS[name] if name in UNITS else tracing.unit_of(name)


def summary(ops: list, metrics: dict) -> dict:
    """The result line: an operation whose output failed a check counts as failed."""
    failed = sum(1 for op in ops if op.problems)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    load_at_start, ticks_at_start = os.getloadavg(), cpu_ticks()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "qqasim" / "__init__.py").is_file():
        print(f"perfbench: no qqasim sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))

    workdir = workloads.new_workdir(workloads.ROOT / ".perfbench_work", f"{args.workload}-{os.getpid()}")
    unused = " (unused: the catalog is deterministic)" if args.workload == "catalog" else ""
    report = [f"workload {args.workload}, seed {args.seed}{unused}, {args.seconds:g} s, "
              f"trace {args.trace}"]
    try:
        measure = traced_run if args.trace else measured_run
        ops, metrics = measure(args.workload, args.seed, args.seconds, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = [op for op in ops if op.problems]
    report.append(f"environment: {json.dumps(environment(load_at_start, ticks_at_start), sort_keys=True)}")
    report.append(f"failed_frac: {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    for op in failed[:5]:
        report.append(f"FAILED: {'; '.join(op.problems)}")
    for name, value in metrics.items():
        report.append(f"{name}: {value:.6g} {unit(name)}")
    print("\n".join(report))
    print(json.dumps(summary(ops, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
