"""Spans around calls into qqasim's modules, for the traced benchmark run.

The program has no instrumentation of its own, so the traced run wraps the
public functions of each module from outside.  Modules bind names with
``from .simulator import verify``, so a wrapper is installed under every
name in every ``qqasim`` module that refers to the original object, and all
of them are put back when the traced region ends.

Spans are kept in memory; self time (a span's duration minus the part of
its interval covered by its children) is computed from the span list after
the run, by :func:`self_times`.
"""
from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager


class Span:
    """One call: name, interval, index of the calling span (-1 for none), and a detail.

    ``overhead`` is the tracer's own time at the end of the interval (working
    out the detail); it is nobody's self time.
    """

    __slots__ = ("name", "start", "end", "parent", "detail", "overhead")

    def __init__(self, name, start, end, parent=-1, detail=None, overhead=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.detail = detail
        self.overhead = overhead


def self_times(spans) -> list:
    """For each span, its duration minus the union of its children's intervals and its overhead."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            low = max(spans[child].start, reach)
            high = min(spans[child].end, span.end)
            if high > low:
                covered += high - low
                reach = high
        result.append(span.end - span.start - covered - span.overhead)
    return result


class Tracer:
    """Collects spans from wrapped callables; single-threaded, like the program."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, function, detail=None):
        """A wrapper recording one span per call; ``detail(args)`` labels a finished span.

        The span is extended over the time ``detail`` takes, and that time is
        its overhead, so it lands in neither the span's nor its caller's self time.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if detail is not None:
                done = span.end
                span.detail = detail(args)
                span.end = clock()
                span.overhead = span.end - done
            return result

        return wrapper

    def count(self, name, function):
        """A wrapper that only counts calls, for functions called too often for spans."""
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def reset(self):
        self.spans.clear()
        self.counts.clear()


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attribute, value):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def replace_everywhere(self, original, wrapper):
        """Rebind every module-level name in ``qqasim`` that refers to ``original``."""
        found = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qqasim" or module_name.startswith("qqasim.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, wrapper)
                    found += 1
        if not found:
            raise LookupError(f"{original!r} is not bound in any qqasim module")

    def restore(self):
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)


#: (module, function, detail) for every public function whose calls get a span.
#: The span is named ``<layer>.<function>``, the layer being the module's last part.
SPANNED = (
    ("qqasim.simulator", "run_all", "shape"),
    ("qqasim.simulator", "verify", None),
    ("qqasim.simulator", "computed_function", None),
    ("qqasim.simulator", "check_property", None),
    ("qqasim.simulator", "run", None),
    ("qqasim.simulator", "trace", None),
    ("qqasim.linalg", "is_unitary", None),
    ("qqasim.linalg", "block_diag", None),
    ("qqasim.linalg", "permutation_matrix", None),
    ("qqasim.boolfun", "combine_disjoint", None),
    ("qqasim.boolfun", "majority_compose", None),
    ("qqasim.algorithms", "equality3_algorithm", None),
    ("qqasim.algorithms", "pair_equality4_algorithm", None),
    ("qqasim.algorithms", "constant_one_algorithm", None),
    ("qqasim.transforms", "invert_outputs", None),
    ("qqasim.transforms", "permute_outputs", None),
    ("qqasim.transforms", "permute_variables", None),
    ("qqasim.transforms", "normalize_accepting_sign", None),
    ("qqasim.constructors", "and_construct", None),
    ("qqasim.constructors", "or_construct", None),
    ("qqasim.constructors", "majority_even4_construct", None),
    ("qqasim.constructors", "majority3_construct", None),
    ("qqasim.catalog", "generate_set", "first"),
    ("qqasim.catalog", "export_csv", None),
    ("qqasim.serialize", "save", "saved"),
    ("qqasim.serialize", "load", "loaded"),
)

#: Functions whose calls are only counted, and only where this module calls them.
COUNTED = (("qqasim.simulator", "bit_string", "boolfun.bit_string"),)


_SHAPES = weakref.WeakKeyDictionary()


def run_all_shape(a):
    """Shape label, rows, and the flop and byte counts computed for one ``run_all`` call.

    A unitary step is a complex ``(rows, m) @ (m, m)`` product: 8 real flops per
    multiply-add, reading the states and the gate and writing the states.  A
    query step multiplies the states by real signs: 2 flops per amplitude,
    reading states and signs and writing states.  Complex values are 16 bytes.
    """
    from qqasim.simulator import QueryGate

    if a in _SHAPES:
        return _SHAPES[a]
    rows, m = 1 << a.arity, a.amplitudes
    flop = moved = 0
    for step in a.steps:
        if isinstance(step, QueryGate):
            flop += 2 * rows * m
            moved += (16 + 8 + 16) * rows * m
        else:
            flop += 8 * rows * m * m
            moved += 16 * (2 * rows * m + m * m)
    shape = _SHAPES[a] = (f"m{m}n{a.arity}", rows, flop, moved)
    return shape


def _file_size(target):
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


_DETAILS = {
    "shape": lambda args: run_all_shape(args[0]),
    "first": lambda args: args[0],
    "saved": lambda args: _file_size(args[1]),
    "loaded": lambda args: _file_size(args[0]),
}


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the originals."""
    import qqasim.cli
    import qqasim.simulator

    patches = Patches()
    try:
        for module_name, attribute, detail in SPANNED:
            original = getattr(sys.modules[module_name], attribute)
            layer = module_name.rsplit(".", 1)[1]
            wrapper = tracer.wrap(f"{layer}.{attribute}", original, _DETAILS.get(detail))
            patches.replace_everywhere(original, wrapper)
        for module_name, attribute, name in COUNTED:
            module = sys.modules[module_name]
            patches.set(module, attribute, tracer.count(name, getattr(module, attribute)))
        qqa = qqasim.simulator.QQA
        patches.set(qqa, "__post_init__", tracer.wrap("simulator.QQA", qqa.__post_init__))
        for command_name, command in qqasim.cli.main.commands.items():
            patches.set(command, "callback", tracer.wrap(f"cli.{command_name}", command.callback))
        yield tracer
    finally:
        patches.restore()


SHAPES = ("m4n3", "m4n4", "m8n6", "m16n6", "m16n7", "m16n8", "m13n9", "m16n12")
CATALOG_SETS = ("qfunc3", "qfunc4", "and", "or", "maj_even4", "majority3")
CLI_COMMANDS = ("verify", "trace", "transform", "construct", "catalog", "sensitivity")
#: Spans reported as ``<name>.calls`` and ``<name>.self_s``; the builtin
#: algorithms are reported together and ``generate_set`` per set.
TIMED = (
    *(f"{module.rsplit('.', 1)[1]}.{function}" for module, function, _ in SPANNED
      if module != "qqasim.algorithms" and function != "generate_set"),
    *(f"cli.{c}" for c in CLI_COMMANDS),
)

UNITS = {"calls": "count", "constructions": "count", "rows": "count", "self_s": "s", "s": "s",
         "untraced_s": "s", "traced_s": "s",
         "bytes": "B", "gflop": "GFLOP-computed", "flop_per_byte": "flop/B-computed",
         "gflops": "GFLOP/s"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return UNITS.get(name.rsplit(".", 1)[1], "ratio")


def shapes_seen(tracer: Tracer) -> set:
    """Every ``run_all`` shape in the trace, including those not reported one by one."""
    return {span.detail[0] for span in tracer.spans if span.name == "simulator.run_all"}


def layer_metrics(tracer: Tracer, algorithms: int, distinct_per_application: float = 0.0) -> dict:
    """Every per-layer metric, by name, from one traced unit of work.

    ``algorithms`` is the number of algorithms the unit produced or handled,
    the base of ``simulator.sims_per_algorithm``.  ``distinct_per_application``
    is read from the catalog's own output; units that build no catalog pass 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for shape in SHAPES:
        out[f"simulator.run_all.{shape}.calls"] = 0
        out[f"simulator.run_all.{shape}.self_s"] = 0.0
    out.update({"simulator.QQA.constructions": 0, "simulator.QQA.self_s": 0.0,
                "algorithms.calls": 0, "algorithms.self_s": 0.0, "catalog.generate_set.calls": 0})
    for name in CATALOG_SETS:
        out[f"catalog.generate_set.{name}.s"] = 0.0
    rows = flop = moved = 0
    run_all_s = serialized = 0.0
    for span, self_s in zip(spans, own):
        name = span.name
        if name.startswith("algorithms."):
            name = "algorithms"
        if name == "simulator.QQA":
            out["simulator.QQA.constructions"] += 1
            out["simulator.QQA.self_s"] += self_s
        elif name == "catalog.generate_set":
            out["catalog.generate_set.calls"] += 1
            out[f"catalog.generate_set.{span.detail}.s"] += span.end - span.start
        else:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        if name == "simulator.run_all":
            shape, shape_rows, shape_flop, shape_moved = span.detail
            if shape in SHAPES:
                out[f"simulator.run_all.{shape}.calls"] += 1
                out[f"simulator.run_all.{shape}.self_s"] += self_s
            rows += shape_rows
            flop += shape_flop
            moved += shape_moved
            run_all_s += self_s
        elif name in ("serialize.save", "serialize.load"):
            serialized += span.detail
    out["simulator.run_all.rows"] = rows
    out["simulator.run_all.gflop"] = flop / 1e9
    out["simulator.run_all.flop_per_byte"] = flop / moved if moved else 0.0
    out["simulator.run_all.gflops"] = flop / 1e9 / run_all_s if run_all_s else 0.0
    out["simulator.sims_per_algorithm"] = out["simulator.run_all.calls"] / algorithms if algorithms else 0.0
    out["boolfun.bit_string.calls"] = tracer.counts["boolfun.bit_string"]
    out["catalog.distinct_per_application"] = distinct_per_application
    out["serialize.bytes"] = serialized
    return out
