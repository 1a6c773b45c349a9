"""Composition methods building bounded-error algorithms from exact ones.

All three combiners run their sub-algorithms in parallel on block-diagonal
gates over a shared superposition, then mix the accepting amplitudes with
small Hadamard-type blocks so that the accepting outputs collect a
probability mass determined only by how many sub-functions are true.  That
mass, P(1) for each number of true parts, is each combiner's one guarantee,
its ``p_one`` in ``_COMBINERS``; its target and its floor follow from it.

Sub-algorithms with unequal query schedules are padded with no-op queries and
identity gates, so a combination always costs max(queries) queries.  The
parallel gates are written into one identity-initialised stack that spans
every amplitude, auxiliary ones included, so no gate is padded twice.  The
stack is float64 when the parts' stacks and the mixing gates are, as they
are for every built-in part, and complex otherwise.  A
combination goes through the one check of every algorithm,
:func:`qqasim.simulator._assembled`, with its parallel gates marked as
checked, since the parts' gates were checked when the parts were made.  Its
one or two mixing gates are checked in one batch by every construction, as
are its query variables, arity, initial state and measurement.

A combined algorithm carries nothing but its fields:
:func:`qqasim.simulator.run_all` finds the parts' blocks in its gates, as it
does in a copy reloaded from a document.

``_COMBINERS`` is the one place each combiner is stated; the combiners, the
catalog and the CLI read it.  A row's ``admits`` decides, through
:func:`_admitted`, both the parts its combiner takes and its catalog pool.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algorithms import H2, _S, constant_one_algorithm
from .boolfun import TruthTable, _true_parts
from .linalg import block_diag, permutation_matrix
from .simulator import (
    QQA,
    QueryGate,
    StructuralProperty,
    _assembled,
    _freeze,
    _require,
    check_property,
    computed_function,
)
from .transforms import normalize_accepting_sign

@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """A constructed algorithm with its target function and probability floor."""

    algorithm: QQA
    target: TruthTable
    guaranteed_p: float
    queries: int


def _admitted(a: QQA, admits: Sequence[StructuralProperty],
              need: str | None = None) -> QQA | None:
    """``a`` as a combiner admitting ``admits`` takes it: as it is, or sign-flipped if the first
    of them it holds is ACCEPT_MINUS_ONE.  If it holds none, ``None``, or with ``need``
    the refusal that :func:`qqasim.simulator._require` words from it."""
    for which in admits:
        if check_property(a, which):
            flip = which is StructuralProperty.ACCEPT_MINUS_ONE
            return normalize_accepting_sign(a) if flip else a
    if need is not None:
        _require(a, need, *admits)  # none of them holds, so this raises
    return None


def _accepting_at(amplitudes: int, index: int) -> tuple:
    """The measurement that accepts at ``index`` alone."""
    return (0,) * index + (1,) + (0,) * (amplitudes - index - 1)


def _schedule(a: QQA) -> tuple:
    """The number of gates in each run between ``a``'s queries, and its query gates."""
    runs, queries = [0], []
    for step in a.steps:
        if isinstance(step, QueryGate):
            queries.append(step)
            runs.append(0)
        else:
            runs[-1] += 1
    return runs, queries


def _combined(
    algs: Sequence[QQA], widths: Sequence[int], amplitudes: int, tail: Sequence[np.ndarray],
    measurement: tuple,
) -> QQA:
    """All ``algs`` side by side on disjoint variables over ``amplitudes`` states, then ``tail``.

    Algorithm i acts on the first amplitudes of its own block of
    ``widths[i]``, in order; the rest of a block, and the amplitudes past
    the last block, are auxiliary, and every step leaves them alone.  The
    run starts from the equal superposition of the parts' initial states,
    each in its block and divided by sqrt(k) for k parts.
    Short query schedules gain no-op queries just before their final unitary
    run, and unitary runs are identity-padded to a common length per slot, so
    the steps share one step-kind pattern; padding never changes what an
    algorithm computes.  Every gate is written into one identity-initialised
    ``(slots, amplitudes, amplitudes)`` stack, each part's gates with one
    assignment, in the common type of the parts' stacks and the mixing
    gates.  Variable indices of later blocks are shifted past the
    arities of earlier ones, matching the convention of
    :func:`qqasim.boolfun.combine_disjoint`.  ``tail`` lists the mixing
    gates that follow.  The parts' gates were checked when the parts were
    made, so only the mixing gates are checked here, by every construction.
    """
    schedules = [_schedule(a) for a in algs]
    rounds = max(len(queries) for _, queries in schedules)
    for runs, queries in schedules:
        runs[-1:-1] = [0] * (rounds - len(queries))
    lengths = [max(column) for column in zip(*(runs for runs, _ in schedules))]
    starts = list(itertools.accumulate(lengths, initial=0))
    parallel = starts[-1]
    dtype = np.result_type(*(a._gates for a in algs), *tail)
    stack = np.zeros((parallel + len(tail), amplitudes, amplitudes), dtype=dtype)
    stack.reshape(len(stack), -1)[:parallel, ::amplitudes + 1] = 1.0  # the diagonals
    for slot, gate in enumerate(tail, parallel):
        stack[slot] = gate
    offsets = list(itertools.accumulate(widths, initial=0))
    initial = np.zeros(amplitudes, dtype=complex)
    for a, offset, (runs, _) in zip(algs, offsets, schedules):
        if runs == lengths:  # a gate in every slot: a slice, which is faster to write
            slots = slice(0, parallel)
        else:
            slots = [k for start, run in zip(starts, runs) for k in range(start, start + run)]
        block = slice(offset, offset + a.amplitudes)
        stack[slots, block, block] = a._gates
        initial[block] = a.initial
    initial /= math.sqrt(len(algs))
    shifts = list(itertools.accumulate((a.arity for a in algs), initial=0))
    steps: list = []
    for i, length in enumerate(lengths):
        steps += [None] * length
        if i < rounds:
            assignments = [None] * amplitudes
            for a, offset, shift, (_, queries) in zip(algs, offsets, shifts, schedules):
                if i < len(queries):
                    assignments[offset:offset + a.amplitudes] = [
                        None if v is None else v + shift for v in queries[i].assignments
                    ]
            steps.append(QueryGate(assignments))
    steps += [None] * len(tail)
    return _assembled(shifts[-1], initial, stack, parallel, steps, measurement)


def _result(function: str, algorithm: QQA, parts: Sequence[QQA]) -> ConstructionResult:
    """What combiner ``function`` returns for ``algorithm`` on ``parts``: its row's floor, and
    its target, the majority outcome of the row's P(1) at each input's number of true parts."""
    row = _ROWS[function]
    arity, counts = _true_parts([computed_function(a) for a in parts])
    accepts = np.array([2 * p.numerator > p.denominator for p in row.p_one])  # P(1) > 1/2
    target = TruthTable(arity, accepts.take(counts).tobytes())
    return ConstructionResult(algorithm, target, float(row.floor), algorithm.query_count)


def _hadamard_pairs(dim: int, pairs: tuple) -> np.ndarray:
    """Identity with a ((s, s), (s, -s)) block on each (i, j) position pair.

    The pairs must not share a position, so the gate is unitary whenever its
    2x2 block is.
    """
    positions = [p for pair in pairs for p in pair]
    if len(set(positions)) != len(positions) or not set(positions) <= set(range(dim)):
        raise ValueError(f"Hadamard pairs must be disjoint positions below {dim}, got {pairs}")
    gate = np.eye(dim)
    for i, j in pairs:
        gate[i, i] = _S
        gate[i, j] = _S
        gate[j, i] = _S
        gate[j, j] = -_S
    return gate


def _hadamard_tree(function: str, algs: Sequence[QQA], labels: Sequence[str], widths) -> QQA:
    """Parallel run of k = 2 or 4 parts, admitted by ``function``, mixed by a Hadamard tree.

    Part i, named ``labels[i]`` in errors, sits in its own block of
    ``widths[i]`` amplitudes.  Each level of the tree halves the accepting
    amplitudes in play by mixing them in pairs, so the first accepting
    output ends up holding b/k, where b counts the true sub-functions, and
    P(1) = (b/k)^2.
    """
    row = _ROWS[function]
    algs = [_admitted(a, row.admits, f"{label}: {row.need}") for a, label in zip(algs, labels)]
    offsets = list(itertools.accumulate(widths, initial=0))
    acc = [offset + a.measurement.index(1) for offset, a in zip(offsets, algs)]
    total, k = offsets[-1], len(algs)
    tail, stride = [], 1
    while stride < k:
        pairs = tuple((acc[i], acc[i + stride]) for i in range(0, k, 2 * stride))
        tail.append(_hadamard_pairs(total, pairs))
        stride *= 2
    return _combined(algs, widths, total, tail, _accepting_at(total, acc[0]))


def and_construct(a1: QQA, a2: QQA) -> ConstructionResult:
    """Bounded-error algorithm for f1(X1) AND f2(X2), success at least 3/4.

    Both inputs must hold the {0, +1} (or, after a sign flip, {0, -1})
    accepting discipline.  The two-part :func:`_hadamard_tree`, each part in
    a block as wide as the wider one.
    """
    m = max(a1.amplitudes, a2.amplitudes)
    algorithm = _hadamard_tree("and_construct", (a1, a2), ("first input", "second input"), (m, m))
    return _result("and_construct", algorithm, (a1, a2))


def _route(sigma: list, sources: Sequence[int], targets: Sequence[int]) -> None:
    """Assign sources to targets, keeping positions that already match fixed."""
    fixed = sorted(set(sources) & set(targets))
    for s in fixed:
        sigma[s] = s
    rest_sources = sorted(set(sources) - set(fixed))
    rest_targets = sorted(set(targets) - set(fixed))
    for s, t in zip(rest_sources, rest_targets):
        sigma[s] = t


@functools.cache
def _or_routing(acc1: int, acc2: int) -> np.ndarray:
    """16-slot permutation placing accepting amplitudes first, rejects in fixed groups.

    ``acc1`` and ``acc2`` are the accepting outputs of the two 4-amplitude
    parts; each of the 16 gates is built once and kept read-only.
    """
    sigma: list = [None] * 16
    rejecting1 = [i for i in range(4) if i != acc1]
    rejecting2 = [i for i in range(4, 8) if i != 4 + acc2]
    _route(sigma, [acc1], [0])
    _route(sigma, [4 + acc2], [1])
    _route(sigma, rejecting1, [2, 3, 4])
    _route(sigma, rejecting2, [6, 7, 8])
    unused_sources = [i for i in range(16) if sigma[i] is None]
    unused_targets = sorted(set(range(16)) - set(s for s in sigma if s is not None))
    _route(sigma, unused_sources, unused_targets)
    return _freeze(permutation_matrix(sigma))


@functools.cache
def _or_mix() -> np.ndarray:
    """The last gate of every ``or`` construction, built once and kept read-only: a
    Hadamard block on the accepting pair (slots 0-1) and a 4x4 one on each side's
    group (2-5, 6-9)."""
    return _freeze(block_diag([H2, np.kron(H2, H2), np.kron(H2, H2), np.eye(6)]))


_OR_MEASUREMENT = tuple(1 if i in (0, 1, 2, 6) else 0 for i in range(16))


def or_construct(a1: QQA, a2: QQA) -> ConstructionResult:
    """Bounded-error algorithm for f1(X1) OR f2(X2), success at least 5/8.

    Restricted to 4-amplitude sub-algorithms whose single accepting amplitude
    is always -1, 0 or +1 with a certain outcome.  The parallel run is
    embedded into 16 amplitudes; a routing permutation moves the accepting
    amplitudes to the front pair and each side's rejecting amplitudes to a
    3-slot group, and Hadamard blocks then guarantee that every true
    sub-function leaves at least 5/8 of the mass on accepting outputs.
    """
    row = _ROWS["or_construct"]
    for label, a in (("first input", a1), ("second input", a2)):
        if a.amplitudes != 4:
            raise ValueError(f"{label}: the or-combiner needs 4-amplitude sub-algorithms")
        _admitted(a, row.admits, f"{label}: {row.need}")  # a signed unit is taken as it is
    tail = [_or_routing(a1.measurement.index(1), a2.measurement.index(1)), _or_mix()]
    algorithm = _combined([a1, a2], [4, 4], 16, tail, _OR_MEASUREMENT)
    return _result("or_construct", algorithm, (a1, a2))


def _majority_tree(function: str, algs: Sequence[QQA]) -> QQA:
    """The four-part :func:`_hadamard_tree`, each part in a block of its own width."""
    labels = [f"input {i + 1}" for i in range(len(algs))]
    return _hadamard_tree(function, algs, labels, [a.amplitudes for a in algs])


def majority_even4_construct(a1: QQA, a2: QQA, a3: QQA, a4: QQA) -> ConstructionResult:
    """Bounded-error algorithm accepting iff at least 3 of 4 sub-functions accept.

    Ties (exactly 2 true) are rejected.  Inputs need the same accepting
    discipline as :func:`and_construct`; the four-part :func:`_hadamard_tree`,
    whose worst case is 9/16.
    """
    algs = (a1, a2, a3, a4)
    algorithm = _majority_tree("majority_even4_construct", algs)
    return _result("majority_even4_construct", algorithm, algs)


@functools.cache
def _filler() -> QQA:
    """The constant-1 algorithm that fills the fourth slot of :func:`majority3_construct`."""
    return constant_one_algorithm(num_amplitudes=1, arity=0, queries=0)


def majority3_construct(a1: QQA, a2: QQA, a3: QQA) -> ConstructionResult:
    """Bounded-error algorithm accepting iff at least 2 of 3 sub-functions accept.

    Implemented as the four-way combiner with a constant-1 algorithm (reading
    no variables) in the last slot, which turns the tie-rejecting four-way
    majority into the odd three-way one at the same 9/16 floor.
    """
    algs = (a1, a2, a3)
    algorithm = _majority_tree("majority3_construct", (*algs, _filler()))
    return _result("majority3_construct", algorithm, algs)


#: The ``admits`` and ``need`` of the mixing and of the routing combiners (see ``_COMBINERS``).
_MIXED = ((StructuralProperty.ACCEPT_PLUS_ONE, StructuralProperty.ACCEPT_MINUS_ONE),
          "accepting amplitude must stay in {} on every input")
_ROUTED = ((StructuralProperty.ACCEPT_SIGNED_UNIT,),
           "needs a certain outcome with one accepting amplitude in {}")

#: Each combiner, in catalog order: its ``qqasim construct --method``, its catalog set, its
#: part count, its function's name, the properties it admits of a part, tried in order, and
#: what its refusal says a part needs (``{}``: their values, as ``simulator._require`` words
#: them), both read by the combiner and by its catalog pool, the pool's base sets, its P(1)
#: for b = 0..parts true parts (majority3's filler counted in), and the floor that follows:
#: the least max(P(1), P(0)).  A function is looked up on this module when it is called, so
#: that one rebound here (as perfbench's traced run rebinds them) is the one called.
_Combiner = namedtuple("_Combiner", "method set_name parts function admits need bases p_one floor")
_COMBINERS = tuple(
    _Combiner(*fields, p_one, min(max(p, 1 - p) for p in p_one))
    for *fields, text in (
        ("and", "and", 2, "and_construct", *_MIXED, ("qfunc3",), "0 1/4 1"),
        ("or", "or", 2, "or_construct", *_ROUTED, ("qfunc3", "qfunc4"), "1/4 5/8 1"),
        ("maj-even4", "maj_even4", 4, "majority_even4_construct", *_MIXED, ("qfunc3",),
         "0 1/16 1/4 9/16 1"),
        ("maj3", "majority3", 3, "majority3_construct", *_MIXED, ("qfunc3",), "1/16 1/4 9/16 1"),
    ) for p_one in [tuple(map(Fraction, text.split()))]
)

#: Each row of ``_COMBINERS`` by its function's name.
_ROWS = {row.function: row for row in _COMBINERS}
