"""Catalog generation: every function reachable from the built-in algorithms.

The two base algorithms are run through the full closure of transformations
(every variable permutation x every single-accepting output placement x
optional inversion) and deduplicated by truth table; the resulting exact
sets feed the and/or/majority combiners.  Every family is built by
``_families``, deduplicated and verified a few candidates at a time, so a
caller that keeps only part of each entry holds no more than ``_BUILT_AHEAD``
algorithms.

Eligibility for a combiner is decided by the structural property checks, not
hard-coded lists: the accept-plus pool (equality3 family) has 4 algorithms
and the signed-unit pool has 4 + 12, which is what makes the constructed set
sizes 16, 256, 256 and 64.  Per-set sizes count distinct functions after
deduplication; a set's ``candidates`` counts method applications, i.e.
generated algorithm instances before deduplication.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .algorithms import equality3_algorithm, pair_equality4_algorithm
from .boolfun import TruthTable, _opened
from .constructors import (
    _accept_plus,
    and_construct,
    majority3_construct,
    majority_even4_construct,
    or_construct,
)
from .linalg import NORM_TOL, _within
from .simulator import QQA, StructuralProperty, check_property, computed_function, verify
from .transforms import invert_outputs, permute_outputs, permute_variables

SET_NAMES = ("qfunc3", "qfunc4", "and", "or", "maj_even4", "majority3")


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
        """``guaranteed_p`` as a fraction, such as ``9/16``, for the summary and the CSV."""
        return str(Fraction(self.guaranteed_p).limit_denominator(64))


def _transposition(size: int, i: int, j: int) -> list:
    sigma = list(range(size))
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return sigma


def _transform_variants(base_name: str, base: QQA):
    """Closure of a base algorithm under the three transformations, one candidate at a time.

    One ``(entry, floor)`` candidate per (variable permutation, accepting
    placement, inversion) triple, in that nesting order, so regeneration is
    deterministic.  Every variant is exact: its floor is 1.
    """
    for sigma in itertools.permutations(range(base.arity)):
        permuted = permute_variables(base, sigma)
        for acc in range(base.amplitudes):
            placed = permute_outputs(permuted, _transposition(base.amplitudes, 0, acc))
            for inverted in (False, True):
                algorithm = invert_outputs(placed) if inverted else placed
                tag = "{}[acc={},vars={}{}]".format(
                    base_name,
                    acc + 1,
                    "".join(str(v + 1) for v in sigma),
                    ",inv" if inverted else "",
                )
                yield CatalogEntry(computed_function(algorithm), algorithm, tag), 1.0


#: Candidates built before the first of them is verified.  A ``verify``
#: right after a construction runs about 20 % slower than one right after
#: another ``verify``, as after any work that refills the CPU caches, so
#: verifying each candidate right after building it made a catalog pass
#: about 15 % slower than building each family whole; 32 ahead, about 4 %.
_BUILT_AHEAD = 32


def _verified(name: str, candidates: Iterable[tuple], keep) -> tuple:
    """The summary of family ``name`` and ``keep(entry, table)`` of each entry of the
    ``(entry, floor)`` ``candidates``, kept as soon as it is verified; ``table`` is its
    packed truth table, ``as_hex()``.

    Candidates are built ``_BUILT_AHEAD`` at a time.  A candidate whose
    function an earlier one computes is dropped before it is verified;
    every other must succeed with its own floor or more.  The summary is a
    ``FunctionSet`` without entries, whose ``guaranteed_p`` is the least
    floor of every candidate, duplicates included.
    """
    seen, arities, queries, floor, count, kept = set(), set(), set(), math.inf, 0, []
    candidates = iter(candidates)
    batches = iter(lambda: list(itertools.islice(candidates, _BUILT_AHEAD)), [])
    for entry, entry_floor in itertools.chain.from_iterable(batches):
        count += 1
        floor = min(floor, entry_floor)
        table = entry.function.as_hex()
        key = (entry.function.arity, table)
        if key in seen:
            continue
        seen.add(key)
        queries.add(entry.algorithm.query_count)
        if len(queries) != 1:
            raise RuntimeError(f"{name}: inconsistent query counts {queries}")
        report = verify(entry.algorithm, entry.function)
        if not _within(entry_floor - report.worst_case_p, NORM_TOL):
            raise RuntimeError(
                f"{name}: entry {entry.provenance} verified at {report.worst_case_p} "
                f"on input {report.witness}, below the {entry_floor} floor"
            )
        arities.add(entry.function.arity)
        kept.append(keep(entry, table))
    if not count:
        raise RuntimeError(f"{name}: no candidates")
    return FunctionSet(name, (), tuple(sorted(arities)), queries.pop(), floor, count), kept


def _mixing_pool(entries: Iterable[CatalogEntry]) -> list:
    """Entries whose accepting amplitude stays in {0, +1} or {0, -1}, all brought to {0, +1}.

    Normalising here, once per pool, lets every combination share the pool's
    algorithms instead of sign-flipping a fresh copy for each one.
    """
    coerced = ((e, _accept_plus(e.algorithm)) for e in entries)
    return [replace(e, algorithm=a) for e, a in coerced if a is not None]


def _routing_pool(entries: Iterable[CatalogEntry]) -> list:
    """Entries with a certain outcome and one accepting amplitude in {-1, 0, +1}."""
    return [
        e
        for e in entries
        if check_property(e.algorithm, StructuralProperty.ACCEPT_SIGNED_UNIT)
    ]


#: The base sets each combined set is built from.
_BASES_OF = {
    "and": ("qfunc3",),
    "or": ("qfunc3", "qfunc4"),
    "maj_even4": ("qfunc3",),
    "majority3": ("qfunc3",),
}


def _base(name: str, bases: dict) -> tuple:
    """Base set ``name``'s summary and ``(entry, table)`` of each entry, built into ``bases``
    the first time it is asked for."""
    if name not in bases:
        bases[name] = _verified(name, _candidates(name, bases), lambda *pair: pair)
    return bases[name]


def _candidates(kind: str, bases: dict):
    """The ``(entry, floor)`` candidates of family ``kind``, each built when it is asked for."""
    if kind == "qfunc3":
        return _transform_variants("equality3", equality3_algorithm())
    if kind == "qfunc4":
        return _transform_variants("pair_equality4", pair_equality4_algorithm())

    # Per combined set: the pool its base sets feed, the combiner and the
    # number of picks per combination.  Built on each call, so that a
    # combiner rebound on this module (as perfbench's traced run rebinds
    # them) is the one called.
    combined = {
        "and": (_mixing_pool, and_construct, 2),
        "or": (_routing_pool, or_construct, 2),
        "maj_even4": (_mixing_pool, majority_even4_construct, 4),
        "majority3": (_mixing_pool, majority3_construct, 3),
    }
    if kind not in combined:
        raise ValueError(f"unknown set {kind!r} (expected one of {SET_NAMES})")
    pool_of, combine, picks_per_combination = combined[kind]
    pool = pool_of(e for name in _BASES_OF[kind] for e, _ in _base(name, bases)[1])
    return _combinations(kind, pool, combine, picks_per_combination)


def _combinations(kind: str, pool: list, combine, picks_per_combination: int):
    """``combine`` applied to every ordered pick of ``pool`` entries, one at a time."""
    for picks in itertools.product(pool, repeat=picks_per_combination):
        result = combine(*(e.algorithm for e in picks))
        provenance = "{}({})".format(kind, ",".join(e.provenance for e in picks))
        yield CatalogEntry(result.target, result.algorithm, provenance), result.guaranteed_p


def _families(names: Sequence[str], keep):
    """Each family of ``names``, in order, as its summary and ``keep(entry, table)`` of each
    entry, ``table`` being its packed truth table.

    A family is built, deduplicated and verified ``_BUILT_AHEAD`` candidates
    at a time, and of each entry only what ``keep`` returns is held.  The base sets are
    the exception: each is built once, when first asked for, and held whole, to feed the
    families built from it.
    """
    bases = {}
    for name in names:
        if name in _BASES_OF:
            yield _verified(name, _candidates(name, bases), keep)
        else:
            summary, built = _base(name, bases)
            yield summary, [keep(entry, table) for entry, table in built]


def _sets(names: Sequence[str]) -> dict:
    """Each family of ``names`` with its entries, keyed by name, in order."""
    families = _families(names, lambda entry, table: entry)
    return {s.name: replace(s, entries=tuple(entries)) for s, entries in families}


def generate_set(kind: str) -> FunctionSet:
    """Generate one of the six catalogued families; see ``SET_NAMES``."""
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
