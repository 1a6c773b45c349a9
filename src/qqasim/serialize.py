"""JSON persistence for query algorithms.

Documents are plain JSON: complex numbers as ``[re, im]`` pairs, matrices
row-major, query gates as 1-based variable indices with ``null`` marking
untouched amplitudes.  Loading only decodes: it checks that every field is
there, the format version, each list it walks and each ``[re, im]`` pair (a
JSON boolean is never taken for a number), and makes the variables 0-based.
Everything else goes to :class:`qqasim.simulator.QQA` as it is; that is the
one place an algorithm is checked, and its messages name the document's
fields.  Files are written atomically (temp file in the same directory,
then rename).
"""
from __future__ import annotations

import json
import os
import tempfile

from .simulator import QQA, QueryGate

FORMAT_VERSION = 1
#: The fields every document has, in the order they are written.
FIELDS = ("format_version", "arity", "amplitudes", "initial", "steps", "measurement")


def to_document(a: QQA, name: str | None = None, provenance: str | None = None) -> dict:
    """The JSON-ready dictionary form of an algorithm."""
    steps = []
    for step in a.steps:
        if isinstance(step, QueryGate):
            steps.append(
                {"query": [None if v is None else v + 1 for v in step.assignments]}
            )
        else:
            steps.append({"unitary": [[[z.real, z.imag] for z in row] for row in step]})
    doc = {
        "format_version": FORMAT_VERSION,
        "arity": a.arity,
        "amplitudes": a.amplitudes,
        "initial": [[z.real, z.imag] for z in a.initial],
        "steps": steps,
        "measurement": list(a.measurement),
    }
    if name is not None:
        doc["name"] = name
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def _complex_pair(value, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"{field}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected list, got {type(value).__name__}")
    return value


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
    initial = [
        _complex_pair(v, f"initial[{i}]") for i, v in enumerate(_list(raw_initial, "initial"))
    ]
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
            steps.append([
                [_complex_pair(entry, f"{where}.unitary[{i}][{j}]")
                 for j, entry in enumerate(_list(row, f"{where}.unitary[{i}]"))]
                for i, row in enumerate(_list(raw["unitary"], f"{where}.unitary"))
            ])
        else:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")
    return QQA(arity, amplitudes, initial, tuple(steps), measurement)


def save(a: QQA, destination, name: str | None = None, provenance: str | None = None) -> dict:
    """Write an algorithm document to ``destination`` atomically; returns the document."""
    doc = to_document(a, name=name, provenance=provenance)
    destination = os.fspath(destination)
    directory = os.path.dirname(os.path.abspath(destination))
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        os.replace(temp_path, destination)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return doc


def load(source) -> QQA:
    """Read an algorithm document from a path or file object."""
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as handle:
            doc = json.load(handle)
    return from_document(doc)
