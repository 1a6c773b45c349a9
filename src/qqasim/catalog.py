"""Catalog generation: every function reachable from the built-in algorithms.

The catalog is one family table in two parts.  A base set is its row of
``_BASES``: the built-in algorithm it closes under the transformations
(every variable permutation x every single-accepting output placement x
optional inversion), deduplicated by truth table.  A combined set is its row
of ``constructors._COMBINERS`` (``_COMBINED``), whose pool is the algorithms
of the row's ``bases`` that the row ``admits``, as its combiner does a part:
the accept-plus pool (equality3 family) has 4 algorithms and the signed-unit
pool 4 + 12, which makes the constructed set sizes 16, 256, 256 and 64.
Every family is built by one loop, ``_families``, deduplicated and verified a
few candidates at a time, so a caller that keeps only part of each entry
holds no more than ``_BUILT_AHEAD`` algorithms; a base set is built once,
when a family first needs it.  A set's size counts distinct functions; its
``candidates``, the algorithms generated before deduplication.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import constructors
from .algorithms import BUILTINS
from .boolfun import TruthTable, _opened
from .linalg import NORM_TOL, _within
from .simulator import QQA, computed_function, verify
from .transforms import invert_outputs, permute_outputs, permute_variables

#: The row of each combined set, by set name, in catalog order.
_COMBINED = {row.set_name: row for row in constructors._COMBINERS}

#: The built-in algorithm (``algorithms.BUILTINS``) that each base set closes, by set name.
_BASES = {"qfunc3": "equality3", "qfunc4": "pair_equality4"}

SET_NAMES = (*_BASES, *_COMBINED)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """One catalogued function with an algorithm computing it."""

    function: TruthTable
    algorithm: QQA
    provenance: str


@dataclass(frozen=True, eq=False)
class FunctionSet:
    """A deduplicated family of functions sharing query count and probability floor.

    ``candidates`` counts the method applications that produced the family,
    i.e. the number of generated algorithms before deduplication.
    """

    name: str
    entries: tuple
    arities: tuple
    queries: int
    guaranteed_p: float
    candidates: int

    @property
    def probability_label(self) -> str:
        """``guaranteed_p`` as an exact fraction, such as ``9/16``, for the summary and the
        CSV; every floor is a dyadic fraction, which a float holds exactly."""
        return str(Fraction(self.guaranteed_p))


def _transform_variants(base_name: str, base: QQA):
    """Closure of a base algorithm under the three transformations, one candidate at a time.

    One entry per (variable permutation, accepting placement, inversion)
    triple, in that nesting order, so regeneration is deterministic.
    """
    for sigma in itertools.permutations(range(base.arity)):
        permuted = permute_variables(base, sigma)
        for acc in range(base.amplitudes):
            swap = list(range(base.amplitudes))
            swap[0], swap[acc] = acc, 0
            placed = permute_outputs(permuted, swap)
            for inverted in (False, True):
                algorithm = invert_outputs(placed) if inverted else placed
                tag = "{}[acc={},vars={}{}]".format(
                    base_name,
                    acc + 1,
                    "".join(str(v + 1) for v in sigma),
                    ",inv" if inverted else "",
                )
                yield CatalogEntry(computed_function(algorithm), algorithm, tag)


#: Candidates built before the first of them is verified.  A ``verify``
#: right after a construction runs about 20 % slower than one right after
#: another ``verify``, as after any work that refills the CPU caches, so
#: verifying each candidate right after building it made a catalog pass
#: about 15 % slower than building each family whole; 32 ahead, about 4 %.
_BUILT_AHEAD = 32


def _verified(name: str, floor: float, candidates: Iterable[CatalogEntry], keep) -> tuple:
    """The summary of family ``name``, whose floor is ``floor``, and ``keep(entry, table)``
    of each entry of its ``candidates``, kept as soon as it is verified; ``table`` is its
    packed truth table, ``as_hex()``.

    Candidates are built ``_BUILT_AHEAD`` at a time.  A candidate whose
    function an earlier one computes is dropped before it is verified;
    every other must succeed with ``floor`` or more.  The summary is a
    ``FunctionSet`` without entries.
    """
    seen, arities, queries, count, kept = set(), set(), set(), 0, []
    candidates = iter(candidates)
    batches = iter(lambda: list(itertools.islice(candidates, _BUILT_AHEAD)), [])
    for entry in itertools.chain.from_iterable(batches):
        count += 1
        table = entry.function.as_hex()
        key = (entry.function.arity, table)
        if key in seen:
            continue
        seen.add(key)
        queries.add(entry.algorithm.query_count)
        if len(queries) != 1:
            raise RuntimeError(f"{name}: inconsistent query counts {queries}")
        report = verify(entry.algorithm, entry.function)
        if not _within(floor - report.worst_case_p, NORM_TOL):
            raise RuntimeError(
                f"{name}: entry {entry.provenance} verified at {report.worst_case_p} "
                f"on input {report.witness}, below the {floor} floor"
            )
        arities.add(entry.function.arity)
        kept.append(keep(entry, table))
    if not count:
        raise RuntimeError(f"{name}: no candidates")
    return FunctionSet(name, (), tuple(sorted(arities)), queries.pop(), floor, count), kept


def _pool(entries: Iterable[CatalogEntry], row) -> list:
    """The entries that the combiner of ``row`` admits, each with its algorithm as the
    combiner takes it (``constructors._admitted``).

    Taking them here, once per pool, lets every combination share the
    pool's algorithms instead of sign-flipping a fresh copy for each one.
    """
    taken = ((e, constructors._admitted(e.algorithm, row.admits)) for e in entries)
    return [replace(e, algorithm=a) for e, a in taken if a is not None]


def _combinations(row, pool: list):
    """The combiner of ``row`` applied to every ordered pick of ``pool`` entries, one at a time."""
    combine = getattr(constructors, row.function)
    for picks in itertools.product(pool, repeat=row.parts):
        result = combine(*(e.algorithm for e in picks))
        provenance = "{}({})".format(row.set_name, ",".join(e.provenance for e in picks))
        yield CatalogEntry(result.target, result.algorithm, provenance)


def _families(names: Sequence[str], keep):
    """Each family of ``names``, in order, as its summary and ``keep(entry, table)`` of each
    entry, ``table`` being its packed truth table.

    One pass of one loop per family, over the family table: ``_BASES`` and
    ``_COMBINED``.  A family is built, deduplicated and verified
    ``_BUILT_AHEAD`` candidates at a time, and of each entry only what
    ``keep`` returns is held.  The base sets are the exception: each is built
    once, when a family first needs it, and held whole, to feed the
    combined families built from it.
    """
    bases = {}
    for name in names:
        row = _COMBINED.get(name)
        for base in row.bases if row else (name,):
            if base not in bases:
                b = _BASES[base]
                variants = _transform_variants(b, BUILTINS[b]())
                bases[base] = _verified(base, 1.0, variants, lambda *pair: pair)
        if row is None:
            summary, built = bases[name]
            yield summary, [keep(entry, table) for entry, table in built]
        else:
            pool = _pool((entry for base in row.bases for entry, _ in bases[base][1]), row)
            yield _verified(name, float(row.floor), _combinations(row, pool), keep)


def _sets(names: Sequence[str]) -> dict:
    """Each family of ``names`` with its entries, keyed by name, in order."""
    families = _families(names, lambda entry, table: entry)
    return {s.name: replace(s, entries=tuple(entries)) for s, entries in families}


def generate_set(kind: str) -> FunctionSet:
    """Generate one of the six catalogued families; see ``SET_NAMES``."""
    if kind not in SET_NAMES:
        raise ValueError(f"unknown set {kind!r} (expected one of {SET_NAMES})")
    return _sets((kind,))[kind]


def generate_all() -> dict:
    """All six families, keyed by name, in ``SET_NAMES`` order; each built once."""
    return _sets(SET_NAMES)


_CSV_HEADER = ("set", "arity", "queries", "probability", "truth_table_hex", "provenance")


def _csv_fields(entry: CatalogEntry, table: str) -> tuple:
    """An entry's own CSV fields: its arity, its packed ``table`` and its provenance."""
    return entry.function.arity, table, entry.provenance


def _write_csv(families: Iterable[tuple], destination) -> None:
    """The CSV header, then a row for each ``_csv_fields`` of each ``(summary, fields)`` family."""
    with _opened(destination, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for s, fields in families:
            label = s.probability_label
            writer.writerows([s.name, arity, s.queries, label, table, provenance]
                             for arity, table, provenance in fields)


def export_csv(sets: dict, destination) -> None:
    """Write ``set,arity,queries,probability,truth_table_hex,provenance`` rows."""
    fields = ((s, [_csv_fields(e, e.function.as_hex()) for e in s.entries]) for s in sets.values())
    _write_csv(fields, destination)
