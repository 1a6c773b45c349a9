"""The benchmark's workloads: ``catalog``, ``verify-stream`` and ``cli-session``.

Each workload is a closed loop with one client.  Its session does one unit of
work per :meth:`run` call (after an untimed :meth:`prepare`) and returns one
:class:`Op` per operation a user would wait for, with the problems found
when the operation's output was checked.  Inputs come from the seed only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Probability floors of the four combiners, as the paper states them.
FLOORS = {"and": 3 / 4, "or": 5 / 8, "maj-even4": 9 / 16, "maj3": 9 / 16}
FLOOR_TOL = 1e-9


@dataclass
class Op:
    """One user-visible operation: its wall time and what was wrong with its output."""

    seconds: float
    problems: list = field(default_factory=list)


def child_env() -> dict:
    """The caller's environment with the source tree first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Invocation:
    exit_code: int
    output: str
    error: str = ""


class Invoker:
    """Runs ``qqasim`` commands in this process through the Click entry point.

    Output goes to one reused buffer: click caches a wrapper for every output
    stream it writes to and that wrapper keeps the stream alive, so a fresh
    buffer per command (as ``click.testing.CliRunner`` makes) grows memory
    with every command.
    """

    def __init__(self):
        self.buffer = io.StringIO()

    def __call__(self, args) -> Invocation:
        import click

        import qqasim.cli

        self.buffer.seek(0)
        self.buffer.truncate()
        code, error = 0, ""
        with contextlib.redirect_stdout(self.buffer), contextlib.redirect_stderr(self.buffer):
            try:
                code = qqasim.cli.main.main(list(args), prog_name="qqasim",
                                            standalone_mode=False) or 0
            except click.ClickException as exception:
                exception.show()
                code = exception.exit_code
            except SystemExit as exception:
                code = exception.code if isinstance(exception.code, int) else int(bool(exception.code))
            except Exception:  # the session goes on; the command counts as failed
                code, error = 1, traceback.format_exc()
        return Invocation(code, self.buffer.getvalue(), error)


# --- catalog ---------------------------------------------------------------

SET_SIZES = {"qfunc3": 8, "qfunc4": 24, "and": 16, "or": 256, "maj_even4": 256, "majority3": 64}
DISTINCT_FUNCTIONS = 624
APPLICATIONS = 832
#: sha256 of ``qqasim catalog --set all --export`` as first recorded with this benchmark.
GOLDEN_CSV_SHA256 = "e343079ffb64c6be6fd319b47afc39c0c8ac67dc5c7424fb8993903ca0b31361"


def parse_summary(stdout: str):
    """Set sizes, distinct functions and applications from the catalog's text summary."""
    sizes, distinct, total = {}, None, None
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in SET_SIZES and fields[1].isdigit():
            sizes[fields[0]] = int(fields[1])
        elif line.startswith("distinct functions: ") and fields[-1].isdigit():
            distinct = int(fields[-1])
        elif len(fields) == 2 and fields[0] == "Total" and fields[1].isdigit():
            total = int(fields[1])
    return sizes, distinct, total


def check_catalog(summary, csv_bytes: bytes) -> list:
    """Problems with one catalog run's parsed text summary and exported CSV."""
    problems = []
    sizes, distinct, total = summary
    if sizes != SET_SIZES:
        problems.append(f"set sizes {sizes}, expected {SET_SIZES}")
    if distinct != DISTINCT_FUNCTIONS:
        problems.append(f"{distinct} distinct functions, expected {DISTINCT_FUNCTIONS}")
    if total != APPLICATIONS:
        problems.append(f"{total} applications, expected {APPLICATIONS}")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if digest != GOLDEN_CSV_SHA256:
        problems.append(f"exported CSV sha256 {digest}, expected {GOLDEN_CSV_SHA256}")
    return problems


class CatalogSession:
    """``qqasim catalog --set all --export <csv>``, in a fresh process per pass.

    The catalog is deterministic, so the seed is unused.  The traced run
    passes ``in_process=True``: wrappers can only see calls in this process.
    """

    def __init__(self, workdir: Path, in_process: bool = False):
        self.csv = workdir / "catalog.csv"
        self.invoke = Invoker() if in_process else None
        self.summary = ({}, None, None)  # parse_summary() of the latest pass

    def prepare(self):
        self.csv.unlink(missing_ok=True)

    def run(self) -> list:
        args = ["catalog", "--set", "all", "--export", str(self.csv)]
        start = time.perf_counter()
        if self.invoke is not None:
            result = self.invoke(args)
            code, stdout = result.exit_code, result.output
        else:
            proc = subprocess.run([sys.executable, "-m", "qqasim.cli", *args], env=child_env(),
                                  capture_output=True, text=True, timeout=170)
            code, stdout = proc.returncode, proc.stdout
        seconds = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}"]
        self.summary = parse_summary(stdout)
        problems += check_catalog(self.summary, self.csv.read_bytes() if self.csv.exists() else b"")
        return [Op(seconds, problems)]


# --- verify-stream ---------------------------------------------------------

#: How many algorithms of each shape the stream holds, drawn from that shape's
#: distinct constructions over the catalog pools.  The mix is the same for
#: every seed; most of the time falls on the 16-amplitude shapes, and
#: ``maj-even4`` is over half the stream so the median call is one of them.
STREAM_SHAPES = {
    ("and", "m8n6"): 8,
    ("or", "m16n6"): 8,
    ("or", "m16n7"): 24,
    ("or", "m16n8"): 40,
    ("maj3", "m13n9"): 16,
    ("maj-even4", "m16n12"): 240,
}


def catalog_pools():
    """The combiner pools of the catalog, chosen by the structural property checks."""
    from qqasim.catalog import generate_set
    from qqasim.simulator import StructuralProperty, check_property

    qfunc3 = [e.algorithm for e in generate_set("qfunc3").entries]
    qfunc4 = [e.algorithm for e in generate_set("qfunc4").entries]
    mixing = [a for a in qfunc3
              if check_property(a, StructuralProperty.ACCEPT_PLUS_ONE)
              or check_property(a, StructuralProperty.ACCEPT_MINUS_ONE)]
    routing = [a for a in qfunc3 + qfunc4
               if check_property(a, StructuralProperty.ACCEPT_SIGNED_UNIT)]
    return mixing, routing


def build_stream(seed: int) -> list:
    """A seeded sample of distinct constructed algorithms, as (kind, algorithm, target)."""
    from qqasim import constructors

    mixing, routing = catalog_pools()
    combos = {
        "and": (constructors.and_construct, list(itertools.product(mixing, repeat=2))),
        "or": (constructors.or_construct, list(itertools.product(routing, repeat=2))),
        "maj-even4": (constructors.majority_even4_construct,
                      list(itertools.product(mixing, repeat=4))),
        "maj3": (constructors.majority3_construct, list(itertools.product(mixing, repeat=3))),
    }
    rng = random.Random(seed)
    stream = []
    for (kind, shape), count in STREAM_SHAPES.items():
        construct, inputs = combos[kind]
        arity = int(shape.split("n")[1])
        matching = [parts for parts in inputs if sum(a.arity for a in parts) == arity]
        for parts in rng.sample(matching, count):
            result = construct(*parts)
            stream.append((kind, result.algorithm, result.target))
    rng.shuffle(stream)
    return stream


def check_report(kind: str, report) -> list:
    """A constructed algorithm must sit exactly on its floor and not be exact."""
    problems = []
    if abs(report.worst_case_p - FLOORS[kind]) > FLOOR_TOL:
        problems.append(f"{kind}: worst case {report.worst_case_p!r}, floor {FLOORS[kind]}")
    if report.exact:
        problems.append(f"{kind}: reported exact")
    return problems


class VerifyStreamSession:
    """``verify(a, target)`` once per algorithm of a prebuilt stream.

    Each pass verifies fresh ``QQA`` objects rebuilt (untimed) from the
    stream's gates, so nothing attached to an algorithm object by an earlier
    pass can answer for a later one.
    """

    def __init__(self, stream: list):
        self.stream = stream
        self.fresh = []

    def prepare(self):
        from qqasim.simulator import QQA

        self.fresh = [(kind, QQA(a.arity, a.amplitudes, a.initial, a.steps, a.measurement), f)
                      for kind, a, f in self.stream]

    def run(self) -> list:
        from qqasim import simulator

        ops = []
        for kind, algorithm, target in self.fresh:
            start = time.perf_counter()
            try:
                report = simulator.verify(algorithm, target)
            except Exception:  # the stream goes on; this algorithm counts as failed
                ops.append(Op(time.perf_counter() - start, [traceback.format_exc(limit=3)]))
                continue
            ops.append(Op(time.perf_counter() - start, check_report(kind, report)))
        self.fresh = []
        return ops


# --- cli-session -----------------------------------------------------------

@dataclass
class Source:
    """An algorithm the session can name on the command line."""

    spec: str
    family: str  # "equality3", "pair_equality4" or a combiner name
    inverted: bool
    arity: int
    amplitudes: int
    measurement: tuple = ()
    target_csv: str = ""


def hex_to_csv(table_hex: str, arity: int, destination: Path) -> None:
    """Write a truth-table CSV from the most-significant-row-first hex packing."""
    rows = 1 << arity
    value = int(table_hex, 16)
    lines = ["input,value"]
    lines += [f"{i:0{arity}b},{(value >> (rows - 1 - i)) & 1}" for i in range(rows)]
    destination.write_text("\n".join(lines) + "\n")


class CliSession:
    """A seeded script of ``qqasim`` commands, run in-process inside a work directory.

    One cycle is 27 commands: 4 ``transform`` (random method and sigma), one
    ``construct`` per method, ``verify --expect-p`` on each constructed file,
    12 ``trace --input``, one ``trace --all-inputs`` and 2 ``sensitivity``.
    Formats alternate between text and JSON at random.  The script only
    asks for operations that must succeed.  Two thirds of the commands are
    the quick ones (trace one input, transform, sensitivity), so the median
    command lies inside that group rather than on the edge between groups.
    """

    KEEP = 24  # most recent files of each kind kept on disk and eligible as inputs
    ALL_INPUTS_MAX_ARITY = 8

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.exact = [
            Source("builtin:equality3", "equality3", False, 3, 4),
            Source("builtin:pair_equality4", "pair_equality4", False, 4, 4),
        ]
        self.built = []
        self.files = 0
        self.invoke = Invoker()

    def prepare(self):
        pass

    def _path(self, suffix: str) -> str:
        self.files += 1
        return str(self.dir / f"a{self.files}{suffix}")

    def _keep(self, sources: list, fixed: int = 0) -> None:
        while len(sources) > fixed + self.KEEP:
            gone = sources.pop(fixed)
            for path in (gone.spec, gone.target_csv):
                if path:
                    Path(path).unlink(missing_ok=True)

    def _format(self) -> list:
        return ["--format", self.rng.choice(("text", "json"))]

    def _command(self, ops: list, args: list):
        start = time.perf_counter()
        result = self.invoke(args)
        op = Op(time.perf_counter() - start)
        if result.exit_code != 0:
            op.problems.append(f"{' '.join(args)}: exit code {result.exit_code}: "
                               f"{result.output.strip()[-200:]} {result.error[-400:]}")
        ops.append(op)
        return op, result

    def run(self) -> list:
        ops = []
        for _ in range(4):
            self._transform(ops)
        made = [self._construct(ops, method) for method in FLOORS]
        for source in made:
            if source is not None:
                self._verify(ops, source)
        for _ in range(12):
            self._trace_input(ops)
        self._trace_all(ops)
        for _ in range(2):
            self._sensitivity(ops)
        return ops

    def _transform(self, ops):
        rng = self.rng
        source = rng.choice(self.exact)
        method = rng.choice(("invert", "permute-outputs", "permute-vars"))
        out = self._path(".json")
        args = [*self._format(), "transform", "--algorithm", source.spec, "--method", method,
                "--out", out]
        size = {"permute-outputs": source.amplitudes, "permute-vars": source.arity}.get(method)
        if size:
            args += ["--sigma", ",".join(str(v) for v in rng.sample(range(1, size + 1), size))]
        op, _ = self._command(ops, args)
        if not op.problems:
            measurement = json.loads(Path(out).read_text())["measurement"]
            self.exact.append(Source(out, source.family, source.inverted ^ (method == "invert"),
                                     source.arity, source.amplitudes, tuple(measurement)))
            self._keep(self.exact, fixed=2)

    def _construct(self, ops, method):
        rng = self.rng
        plain = [s for s in self.exact if not s.inverted]
        pool = plain if method == "or" else [s for s in plain if s.family == "equality3"]
        count = {"and": 2, "or": 2, "maj-even4": 4, "maj3": 3}[method]
        parts = [rng.choice(pool) for _ in range(count)]
        out = self._path(".json")
        args = ["--format", "json", "construct", "--method", method,
                "--inputs", ",".join(p.spec for p in parts), "--out", out]
        op, result = self._command(ops, args)
        if op.problems:
            return None
        reply = json.loads(result.output)
        if abs(reply["worst_case_p"] - FLOORS[method]) > FLOOR_TOL:
            op.problems.append(f"construct {method}: worst case {reply['worst_case_p']!r}")
        document = json.loads(Path(out).read_text())
        target = self._path(".csv")
        hex_to_csv(reply["target_hex"], document["arity"], Path(target))
        source = Source(out, method, False, document["arity"], document["amplitudes"],
                        tuple(document["measurement"]), target)
        self.built.append(source)
        self._keep(self.built)
        return source

    def _verify(self, ops, source):
        fmt = self._format()
        args = [*fmt, "verify", "--algorithm", source.spec, "--function", source.target_csv,
                "--expect-p", repr(FLOORS[source.family])]
        op, result = self._command(ops, args)
        if op.problems:
            return
        if fmt[1] == "json":
            reply = json.loads(result.output)
            if reply["failures"] or reply["exact"]:
                op.problems.append(f"verify {source.spec}: {reply['failures']}")
        elif "FAIL" in result.output or not result.output.startswith("bounded-error"):
            op.problems.append(f"verify {source.spec}: {result.output.strip()}")

    def _traceable(self, max_arity=None) -> list:
        files = [s for s in self.exact + self.built if s.measurement]
        return [s for s in files if max_arity is None or s.arity <= max_arity]

    def _trace_input(self, ops):
        source = self.rng.choice(self._traceable())
        bits = "".join(self.rng.choice("01") for _ in range(source.arity))
        self._trace(ops, source, ["--input", bits], 1)

    def _trace_all(self, ops):
        source = self.rng.choice(self._traceable(self.ALL_INPUTS_MAX_ARITY))
        self._trace(ops, source, ["--all-inputs"], 1 << source.arity)

    def _trace(self, ops, source, which, rows):
        fmt = self._format()
        op, result = self._command(ops, [*fmt, "trace", "--algorithm", source.spec, *which])
        if op.problems:
            return
        if fmt[1] == "text":
            if len(result.output.splitlines()) != rows + 1:
                op.problems.append(f"trace {source.spec}: expected {rows} rows")
            return
        reply = json.loads(result.output)
        if len(reply) != rows:
            op.problems.append(f"trace {source.spec}: expected {rows} rows, got {len(reply)}")
        for row in reply:
            final = row["states"][-1]
            p_one = sum(re * re + im * im
                        for (re, im), value in zip(final, source.measurement) if value == 1)
            if abs(p_one - row["probabilities"]["1"]) > FLOOR_TOL:
                op.problems.append(f"trace {source.spec} {row['input']}: final state gives "
                                   f"P(1)={p_one!r}, run gives {row['probabilities']['1']!r}")

    def _sensitivity(self, ops):
        tables = [s.target_csv for s in self.built]
        if tables:
            self._command(ops, [*self._format(), "sensitivity", "--function",
                                self.rng.choice(tables)])


def new_workdir(base: Path, name: str) -> Path:
    """An empty directory ``base/name``."""
    path = base / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
