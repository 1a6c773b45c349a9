"""JSON persistence for query algorithms.

Documents are plain JSON: complex numbers as ``[re, im]`` pairs, matrices
row-major, query gates as 1-based variable indices with ``null`` marking
untouched amplitudes.  Loading only decodes: it checks that every field is
there, the format version, each list it walks and each ``[re, im]`` pair (a
JSON boolean is never taken for a number, nor an integer too large for a
float), and makes the variables 0-based.  A list of pairs that holds only
lists and JSON numbers, in the right shape, is converted in one step; any
other is walked entry by entry, which names the first bad one.  Everything
else goes to :class:`qqasim.simulator.QQA` as it is, and so to the one check
of every algorithm, whose messages name the document's fields.

A saved file is exactly ``json.dump(to_document(a), f, indent=1)`` followed
by a newline, byte for byte, but it is written from the algorithm's arrays:
``indent`` keeps ``json`` on its pure-Python encoder, which walks one entry
at a time.  The same writer prints the CLI's indented JSON.  Files are
written atomically by the one writer of every file, ``boolfun._opened``
(temp file in the same directory, then rename).
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .boolfun import _opened
from .simulator import QQA, QueryGate

FORMAT_VERSION = 1
#: The fields every document has, in the order they are written.
FIELDS = ("format_version", "arity", "amplitudes", "initial", "steps", "measurement")


def _pair_lists(z: np.ndarray) -> list:
    """An array as nested lists whose leaves are ``[re, im]`` pairs of floats."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(*z.shape, 2).tolist()


def _document(a: QQA, name: str | None, provenance: str | None, pairs) -> dict:
    """The document of an algorithm, each array given as ``pairs(array)``."""
    steps = [
        {"query": [None if v is None else v + 1 for v in step.assignments]}
        if isinstance(step, QueryGate) else {"unitary": pairs(step)}
        for step in a.steps
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "arity": a.arity,
        "amplitudes": a.amplitudes,
        "initial": pairs(a.initial),
        "steps": steps,
        "measurement": list(a.measurement),
    }
    if name is not None:
        doc["name"] = name
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def to_document(a: QQA, name: str | None = None, provenance: str | None = None) -> dict:
    """The JSON-ready dictionary form of an algorithm."""
    return _document(a, name, provenance, _pair_lists)


@lru_cache(maxsize=64)
def _separators(shape: tuple, level: int) -> tuple:
    """What ``json.dumps(indent=1)`` writes before the first number of a
    nested list of ``shape`` at nesting ``level``, and after each number."""
    depth = len(shape)

    def line(i):  # a new line at the indent of the lists i deep in this one
        return "\n" + " " * (level + i)

    count = int(np.prod(shape))
    separators = ["," + line(depth)] * count
    stride = 1
    for closed in range(1, depth):  # after the last number of the `closed` innermost lists
        stride *= shape[depth - closed]
        close = "".join(line(i) + "]" for i in range(depth - 1, depth - closed - 1, -1))
        reopen = "".join(line(i) + "[" for i in range(depth - closed, depth))
        separators[stride - 1::stride] = [close + "," + reopen + line(depth)] * (count // stride)
    separators[-1] = "".join(line(i) + "]" for i in range(depth - 1, -1, -1))
    return "[" + "".join(line(i) + "[" for i in range(1, depth)) + line(depth), tuple(separators)


def _pair_text(z: np.ndarray, level: int) -> str:
    """An array with no zero dimension as nested ``[re, im]`` pairs.

    Each part goes through ``float.__repr__``, as in ``json``; every number
    of an algorithm or of its states is finite.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    prefix, separators = _separators(z.shape + (2,), level)
    out = [None] * (2 * len(separators))
    out[0::2] = map(float.__repr__, z.view(float).ravel().tolist())
    out[1::2] = separators
    return prefix + "".join(out)


def _bracketed(opening: str, items: list, closing: str, level: int) -> str:
    """Items already written, one a line, between brackets at nesting ``level``."""
    if not items:
        return opening + closing
    inner = "\n" + " " * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + " " * level + closing


def _json_text(value, level: int = 0) -> str:
    """``json.dumps(value, indent=1)`` at nesting ``level``, an array
    standing for its nested ``[re, im]`` pairs; object keys are strings."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, level + 1)
            for key, item in value.items()
        ]
        return _bracketed("{", items, "}", level)
    if isinstance(value, (list, tuple)):
        return _bracketed("[", [_json_text(item, level + 1) for item in value], "]", level)
    if isinstance(value, np.ndarray):
        return _pair_text(value, level)
    return json.dumps(value)  # a string, a boolean, or a float that is not finite


def _json_chunks(items):
    """``_json_text(list(items))`` in pieces, one per item, so that only one
    item is held at a time."""
    opening = "["
    for item in items:
        yield opening + "\n " + _json_text(item, 1)
        opening = ","
    yield "[]" if opening == "[" else "\n]"


def _complex_pair(value, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"{field}: expected a [re, im] pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError as error:  # an integer too large for a float
        raise ValueError(f"{field}: {error}") from None


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected list, got {type(value).__name__}")
    return value


def _pairs(value, field: str, depth: int):
    """Decode ``depth`` nested lists of ``[re, im]`` pairs.

    When every list holds lists of one length and every pair is two JSON
    numbers (never a boolean), the numbers become one complex array in one
    conversion.  Anything else is walked entry by entry, which names the
    first bad entry, and gives nested lists of complex as before.
    """
    level, shape = [value], []
    for _ in range(depth + 1):  # the nested lists, then the pairs
        lengths = set(map(len, level)) if set(map(type, level)) == {list} else set()
        if len(lengths) != 1:
            return _walk(value, field, depth)
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    if shape[-1] == 2 and set(map(type, level)) <= {int, float}:
        try:
            return np.array(level, dtype=float).view(complex).reshape(shape[:-1])
        except OverflowError:  # an integer too large for a float
            pass
    return _walk(value, field, depth)


def _walk(value, field: str, depth: int):
    """Decode like :func:`_pairs`, one entry at a time, raising for the first bad entry."""
    if depth == 0:
        return _complex_pair(value, field)
    return [_walk(v, f"{field}[{i}]", depth - 1) for i, v in enumerate(_list(value, field))]


def from_document(doc: dict) -> QQA:
    """Rebuild an algorithm: decode the JSON, then let :class:`QQA` check every field."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    for field in FIELDS:
        if field not in doc:
            raise ValueError(f"missing field {field!r}")
    version, arity, amplitudes, raw_initial, raw_steps, measurement = (doc[f] for f in FIELDS)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"format_version: unsupported version {version!r}")
    initial = _pairs(raw_initial, "initial", 1)
    steps = []
    for k, raw in enumerate(_list(raw_steps, "steps")):
        where = f"steps[{k}]"
        if not isinstance(raw, dict) or len(raw) != 1:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")
        if "query" in raw:
            # 1-based in the document, 0-based in the model; QQA checks the range.
            steps.append(QueryGate(
                v - 1 if type(v) is int else v for v in _list(raw["query"], f"{where}.query")
            ))
        elif "unitary" in raw:
            steps.append(_pairs(raw["unitary"], f"{where}.unitary", 2))
        else:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")
    return QQA(arity, amplitudes, initial, tuple(steps), measurement)


def save(a: QQA, destination, name: str | None = None, provenance: str | None = None) -> dict:
    """Write an algorithm document to ``destination``, a path (written atomically) or a
    file object; returns the document written, its arrays as they are, real gates as
    float64 (``to_document`` turns them into ``[re, im]`` lists)."""
    doc = _document(a, name, provenance, np.asarray)
    text = _json_text(doc)
    with _opened(destination, "w") as handle:
        handle.write(text + "\n")
    return doc


def load(source) -> QQA:
    """Read an algorithm document from a path or file object."""
    with _opened(source, "r") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:  # the decoder recurses once per nested list or object
            raise ValueError("JSON nested too deeply to decode") from None
    return from_document(doc)
