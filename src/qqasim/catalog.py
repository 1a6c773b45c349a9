"""Catalog generation: every function reachable from the built-in algorithms.

The two base algorithms are run through the full closure of transformations
(every variable permutation x every single-accepting output placement x
optional inversion) and deduplicated by truth table; the resulting exact
sets feed the and/or/majority combiners.

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


def _transform_variants(base_name: str, base: QQA) -> list:
    """Closure of a base algorithm under the three transformations.

    One candidate per (variable permutation, accepting placement, inversion)
    triple, in that nesting order, so regeneration is deterministic.
    """
    variants = []
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
                variants.append(CatalogEntry(computed_function(algorithm), algorithm, tag))
    return variants


def _dedup(entries: Iterable[CatalogEntry]) -> tuple:
    seen = {}
    for entry in entries:
        key = (entry.function.arity, entry.function.bits)
        if key not in seen:
            seen[key] = entry
    return tuple(seen.values())


def _verified_set(name: str, candidates: Sequence[CatalogEntry], floor: float) -> FunctionSet:
    """The distinct ``candidates``, each verified to succeed with probability ``floor`` or more."""
    entries = _dedup(candidates)
    queries = {entry.algorithm.query_count for entry in entries}
    if len(queries) != 1:
        raise RuntimeError(f"{name}: inconsistent query counts {queries}")
    for entry in entries:
        report = verify(entry.algorithm, entry.function)
        if not _within(floor - report.worst_case_p, NORM_TOL):
            raise RuntimeError(
                f"{name}: entry {entry.provenance} verified at {report.worst_case_p} "
                f"on input {report.witness}, below the {floor} floor"
            )
    arities = tuple(sorted({entry.function.arity for entry in entries}))
    return FunctionSet(name, entries, arities, queries.pop(), floor, len(candidates))


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


def _base_entries(name: str, bases: dict | None) -> tuple:
    """Entries of base set ``name``, taken from ``bases`` when it holds the set."""
    if bases and name in bases:
        return bases[name].entries
    return generate_set(name).entries


#: The base sets each combined set is built from.
_BASES_OF = {
    "and": ("qfunc3",),
    "or": ("qfunc3", "qfunc4"),
    "maj_even4": ("qfunc3",),
    "majority3": ("qfunc3",),
}


def generate_set(kind: str, bases: dict | None = None) -> FunctionSet:
    """Generate one of the six catalogued families; see ``SET_NAMES``.

    A combined family is built from the ``qfunc3``/``qfunc4`` sets in
    ``bases``, or from freshly generated ones where ``bases`` lacks them.
    """
    if kind == "qfunc3":
        return _verified_set(kind, _transform_variants("equality3", equality3_algorithm()), 1.0)
    if kind == "qfunc4":
        return _verified_set(
            kind, _transform_variants("pair_equality4", pair_equality4_algorithm()), 1.0
        )

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
    pool = pool_of(e for name in _BASES_OF[kind] for e in _base_entries(name, bases))
    candidates, floors = [], set()
    for picks in itertools.product(pool, repeat=picks_per_combination):
        result = combine(*(e.algorithm for e in picks))
        provenance = "{}({})".format(kind, ",".join(e.provenance for e in picks))
        candidates.append(CatalogEntry(result.target, result.algorithm, provenance))
        floors.add(result.guaranteed_p)
    # An empty pool has no floor; _verified_set rejects its empty set.
    return _verified_set(kind, candidates, min(floors, default=0.0))


def _families(names: Sequence[str]):
    """The sets ``names``, in order, each built once and yielded as soon as it is built.

    Between sets only the base sets that a later name reads are kept, so a
    caller that drops each set before it asks for the next one holds at
    most those and the set being built.
    """
    bases = {}
    for i, name in enumerate(names):
        family = generate_set(name, bases)
        later = {base for kind in names[i + 1:] for base in _BASES_OF.get(kind, ())}
        bases = {n: s for n, s in {**bases, name: family}.items() if n in later}
        yield family
        del family  # not held while the next set is built


def generate_all() -> dict:
    """All six families, keyed by name, in ``SET_NAMES`` order; each built once."""
    return {family.name: family for family in _families(SET_NAMES)}


_CSV_HEADER = ("set", "arity", "queries", "probability", "truth_table_hex", "provenance")


def _csv_rows(function_set: FunctionSet) -> list:
    """The CSV rows of one set's entries, in order."""
    label = function_set.probability_label
    return [
        [
            function_set.name,
            entry.function.arity,
            function_set.queries,
            label,
            entry.function.as_hex(),
            entry.provenance,
        ]
        for entry in function_set.entries
    ]


def _write_csv(rows: Iterable[list], destination) -> None:
    """The CSV header, then ``rows``."""
    with _opened(destination, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        writer.writerows(rows)


def export_csv(sets: dict, destination) -> None:
    """Write ``set,arity,queries,probability,truth_table_hex,provenance`` rows."""
    _write_csv((row for s in sets.values() for row in _csv_rows(s)), destination)
