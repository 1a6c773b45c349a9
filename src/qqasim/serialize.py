"""JSON persistence for query algorithms.

Documents are plain JSON: complex numbers as ``[re, im]`` pairs, matrices
row-major, query gates as 1-based variable indices with ``null`` marking
untouched amplitudes.  Loading validates shapes and value ranges (a JSON
boolean is never taken for a number) and names the offending field on
failure; the unit norm of the initial state and the unitarity of each gate
are checked once, by :class:`qqasim.simulator.QQA`, whose messages use the
document's field names.  Files are written atomically
(temp file in the same directory, then rename).
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .simulator import QQA, QueryGate

FORMAT_VERSION = 1


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


def _require(doc: dict, field: str, kind) -> object:
    if field not in doc:
        raise ValueError(f"missing field {field!r}")
    value = doc[field]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{field}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def from_document(doc: dict) -> QQA:
    """Rebuild an algorithm, validating every field of the document."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise ValueError(f"format_version: unsupported version {version}")
    arity = _require(doc, "arity", int)
    amplitudes = _require(doc, "amplitudes", int)
    if arity < 0:
        raise ValueError(f"arity: must be non-negative, got {arity}")
    if amplitudes < 1:
        raise ValueError(f"amplitudes: must be positive, got {amplitudes}")

    raw_initial = _require(doc, "initial", list)
    if len(raw_initial) != amplitudes:
        raise ValueError(f"initial: expected {amplitudes} entries, got {len(raw_initial)}")
    initial = np.array(
        [_complex_pair(v, f"initial[{i}]") for i, v in enumerate(raw_initial)]
    )

    steps = []
    for k, raw in enumerate(_require(doc, "steps", list)):
        where = f"steps[{k}]"
        if not isinstance(raw, dict) or len(raw) != 1:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")
        if "query" in raw:
            vars_1based = raw["query"]
            if not isinstance(vars_1based, list) or len(vars_1based) != amplitudes:
                raise ValueError(f"{where}.query: expected {amplitudes} entries")
            assignments = []
            for j, v in enumerate(vars_1based):
                if v is None:
                    assignments.append(None)
                elif isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= arity:
                    assignments.append(v - 1)
                else:
                    raise ValueError(
                        f"{where}.query[{j}]: expected null or a variable in 1..{arity}, got {v!r}"
                    )
            steps.append(QueryGate(tuple(assignments)))
        elif "unitary" in raw:
            rows = raw["unitary"]
            if not isinstance(rows, list) or len(rows) != amplitudes:
                raise ValueError(f"{where}.unitary: expected {amplitudes} rows")
            matrix = np.zeros((amplitudes, amplitudes), dtype=complex)
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != amplitudes:
                    raise ValueError(f"{where}.unitary[{i}]: expected {amplitudes} entries")
                for j, entry in enumerate(row):
                    matrix[i, j] = _complex_pair(entry, f"{where}.unitary[{i}][{j}]")
            steps.append(matrix)
        else:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")

    raw_measurement = _require(doc, "measurement", list)
    if len(raw_measurement) != amplitudes or any(
        type(v) is not int or v not in (0, 1) for v in raw_measurement
    ):
        raise ValueError(f"measurement: expected {amplitudes} values of 0 or 1")

    return QQA(arity, amplitudes, initial, tuple(steps), tuple(raw_measurement))


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
