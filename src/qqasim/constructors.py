"""Composition methods building bounded-error algorithms from exact ones.

All three combiners run their sub-algorithms in parallel on block-diagonal
gates over a shared superposition, then mix the accepting amplitudes with
small Hadamard-type blocks so that the first accepting output collects a
probability mass determined only by how many sub-functions are true:

- ``and_construct``: P(1) = (b1 + b2)^2 / 4, worst case 3/4;
- ``or_construct``: P(1) is 1, 5/8 or 1/4 for 2, 1 or 0 true sub-functions,
  worst case 5/8;
- ``majority_even4_construct``: P(1) = b^2 / 16, worst case 9/16.

Sub-algorithms with unequal query schedules are padded with no-op queries and
identity gates, so a combination always costs max(queries) queries.  The
parallel gates are written into one identity-initialised stack that spans
every amplitude, auxiliary ones included, so no gate is padded twice.

A combined algorithm carries nothing but its fields:
:func:`qqasim.simulator.run_all` finds the parts' blocks in its gates, as it
does in a copy reloaded from a document.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import constant_one_algorithm
from .boolfun import TruthTable, combine_disjoint, majority_compose
from .linalg import block_diag, permutation_matrix
from .simulator import (
    QQA,
    QueryGate,
    StructuralProperty,
    check_property,
    computed_function,
)
from .transforms import normalize_accepting_sign

_S = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """A constructed algorithm with its target function and probability floor."""

    algorithm: QQA
    target: TruthTable
    guaranteed_p: float
    queries: int


def _as_accept_plus(a: QQA, label: str) -> QQA:
    """Coerce to the {0, +1} accepting discipline, flipping a {0, -1} sign if needed."""
    if check_property(a, StructuralProperty.ACCEPT_PLUS_ONE):
        return a
    if check_property(a, StructuralProperty.ACCEPT_MINUS_ONE):
        return normalize_accepting_sign(a)
    raise ValueError(
        f"{label}: accepting amplitude must stay in {{0, +1}} or {{0, -1}} on every input"
    )


def _accepting_index(a: QQA) -> int:
    accepting = a.accepting_outputs()
    if len(accepting) != 1:
        raise ValueError(f"expected exactly one accepting output, found {len(accepting)}")
    return accepting[0]


def _segments(a: QQA):
    """Split steps into runs of unitaries separated by the query gates."""
    segments: list[list] = [[]]
    queries: list[QueryGate] = []
    for step in a.steps:
        if isinstance(step, QueryGate):
            queries.append(step)
            segments.append([])
        else:
            segments[-1].append(step)
    return segments, queries


def _parallel_steps(algs: Sequence[QQA], widths: Sequence[int], amplitudes: int) -> tuple:
    """Steps running all ``algs`` side by side on disjoint variables, over ``amplitudes`` states.

    Algorithm i acts on the first amplitudes of its own block of
    ``widths[i]``, in order; the rest of a block, and the amplitudes past
    the last block, are auxiliary, and every step leaves them alone.
    Short query schedules gain no-op queries just before their final unitary
    run, and unitary runs are identity-padded to a common length per slot, so
    the steps share one step-kind pattern; padding never changes what an
    algorithm computes.  Every gate is written into one identity-initialised
    ``(slots, amplitudes, amplitudes)`` stack.  Variable indices of later
    blocks are shifted past the arities of earlier ones, matching the
    convention of :func:`qqasim.boolfun.combine_disjoint`.
    """
    split = [_segments(a) for a in algs]
    t_max = max(len(queries) for _, queries in split)
    for a, (segments, queries) in zip(algs, split):
        while len(queries) < t_max:
            queries.append(QueryGate((None,) * a.amplitudes))
            segments.insert(len(segments) - 1, [])
    run_lengths = [max(len(segments[i]) for segments, _ in split) for i in range(t_max + 1)]
    starts = list(itertools.accumulate(run_lengths, initial=0))
    stack = np.empty((starts[-1], amplitudes, amplitudes), dtype=complex)
    stack[...] = np.eye(amplitudes)
    offsets = list(itertools.accumulate(widths, initial=0))
    for a, offset, (segments, _) in zip(algs, offsets, split):
        block = slice(offset, offset + a.amplitudes)
        for start, segment in zip(starts, segments):
            for slot, gate in enumerate(segment, start):
                stack[slot, block, block] = gate
    shifts = list(itertools.accumulate((a.arity for a in algs), initial=0))
    steps: list = []
    for i in range(t_max + 1):
        steps.extend(stack[starts[i]:starts[i + 1]])
        if i < t_max:
            assignments = [None] * amplitudes
            for a, offset, shift, (_, queries) in zip(algs, offsets, shifts, split):
                assignments[offset:offset + a.amplitudes] = (
                    None if v is None else v + shift for v in queries[i].assignments
                )
            steps.append(QueryGate(assignments))
    return tuple(steps)


def _hadamard_pairs(dim: int, pairs: Sequence[tuple]) -> np.ndarray:
    """Identity with a ((s, s), (s, -s)) block on each (i, j) position pair."""
    gate = np.eye(dim, dtype=complex)
    for i, j in pairs:
        gate[i, i] = _S
        gate[i, j] = _S
        gate[j, i] = _S
        gate[j, j] = -_S
    return gate


def and_construct(a1: QQA, a2: QQA) -> ConstructionResult:
    """Bounded-error algorithm for f1(X1) AND f2(X2), success at least 3/4.

    Both inputs must hold the {0, +1} (or, after a sign flip, {0, -1})
    accepting discipline.  A final Hadamard block mixes the two accepting
    amplitudes of the equal-superposition parallel run, leaving probability
    (b1 + b2)^2 / 4 on the first accepting output.
    """
    a1 = _as_accept_plus(a1, "first input")
    a2 = _as_accept_plus(a2, "second input")
    f1, f2 = computed_function(a1), computed_function(a2)
    m = max(a1.amplitudes, a2.amplitudes)
    steps = _parallel_steps([a1, a2], [m, m], 2 * m)
    acc1 = _accepting_index(a1)
    acc2 = m + _accepting_index(a2)
    mix = _hadamard_pairs(2 * m, [(acc1, acc2)])
    initial = np.zeros(2 * m, dtype=complex)
    initial[:a1.amplitudes] = a1.initial
    initial[m:m + a2.amplitudes] = a2.initial
    initial /= math.sqrt(2.0)
    measurement = tuple(1 if i == acc1 else 0 for i in range(2 * m))
    algorithm = QQA(
        arity=a1.arity + a2.arity,
        amplitudes=2 * m,
        initial=initial,
        steps=steps + (mix,),
        measurement=measurement,
    )
    target = combine_disjoint(f1, f2, "and")
    return ConstructionResult(algorithm, target, guaranteed_p=3 / 4, queries=algorithm.query_count)


def _route(sigma: list, sources: Sequence[int], targets: Sequence[int]) -> None:
    """Assign sources to targets, keeping positions that already match fixed."""
    fixed = sorted(set(sources) & set(targets))
    for s in fixed:
        sigma[s] = s
    rest_sources = sorted(set(sources) - set(fixed))
    rest_targets = sorted(set(targets) - set(fixed))
    for s, t in zip(rest_sources, rest_targets):
        sigma[s] = t


def _or_routing(acc1: int, acc2: int) -> list:
    """16-slot permutation placing accepting amplitudes first, rejects in fixed groups."""
    sigma: list = [None] * 16
    rejecting1 = [i for i in range(4) if i != acc1]
    rejecting2 = [i for i in range(4, 8) if i != acc2]
    _route(sigma, [acc1], [0])
    _route(sigma, [acc2], [1])
    _route(sigma, rejecting1, [2, 3, 4])
    _route(sigma, rejecting2, [6, 7, 8])
    unused_sources = [i for i in range(16) if sigma[i] is None]
    unused_targets = sorted(set(range(16)) - set(s for s in sigma if s is not None))
    _route(sigma, unused_sources, unused_targets)
    return sigma


_H2 = np.array([[_S, _S], [_S, -_S]])
#: The last gate of every ``or`` construction, read-only: a Hadamard block on
#: the accepting pair (slots 0-1) and a 4x4 one on each side's group (2-5, 6-9).
_OR_MIX = block_diag([_H2, np.kron(_H2, _H2), np.kron(_H2, _H2), np.eye(6)])
_OR_MIX.setflags(write=False)


def or_construct(a1: QQA, a2: QQA) -> ConstructionResult:
    """Bounded-error algorithm for f1(X1) OR f2(X2), success at least 5/8.

    Restricted to 4-amplitude sub-algorithms whose single accepting amplitude
    is always -1, 0 or +1 with a certain outcome.  The parallel run is
    embedded into 16 amplitudes; a routing permutation moves the accepting
    amplitudes to the front pair and each side's rejecting amplitudes to a
    3-slot group, and Hadamard blocks then guarantee that every true
    sub-function leaves at least 5/8 of the mass on accepting outputs.
    """
    for label, a in (("first input", a1), ("second input", a2)):
        if a.amplitudes != 4:
            raise ValueError(f"{label}: the or-combiner needs 4-amplitude sub-algorithms")
        if not check_property(a, StructuralProperty.ACCEPT_SIGNED_UNIT):
            raise ValueError(
                f"{label}: needs a certain outcome with one accepting amplitude in {{-1, 0, +1}}"
            )
    f1, f2 = computed_function(a1), computed_function(a2)
    steps = _parallel_steps([a1, a2], [4, 4], 16)
    swap = permutation_matrix(_or_routing(_accepting_index(a1), 4 + _accepting_index(a2)))
    initial = np.concatenate([a1.initial, a2.initial]) / math.sqrt(2.0)
    initial = np.concatenate([initial, np.zeros(8)])
    measurement = tuple(1 if i in (0, 1, 2, 6) else 0 for i in range(16))
    algorithm = QQA(
        arity=a1.arity + a2.arity,
        amplitudes=16,
        initial=initial,
        steps=steps + (swap, _OR_MIX),
        measurement=measurement,
    )
    target = combine_disjoint(f1, f2, "or")
    return ConstructionResult(algorithm, target, guaranteed_p=5 / 8, queries=algorithm.query_count)


def _majority_pipeline(algs: Sequence[QQA]) -> QQA:
    """Parallel run of four accept-plus algorithms with the two mixing stages.

    Starting from the equal 1/2 superposition of the four initial states, the
    accepting amplitudes end up holding b/4 at the first accepting output,
    where b counts the true sub-functions.
    """
    algs = [_as_accept_plus(a, f"input {i + 1}") for i, a in enumerate(algs)]
    offsets = np.cumsum([0] + [a.amplitudes for a in algs])
    total = int(offsets[-1])
    steps = _parallel_steps(algs, [a.amplitudes for a in algs], total)
    acc = [int(off) + _accepting_index(a) for off, a in zip(offsets, algs)]
    first_mix = _hadamard_pairs(total, [(acc[0], acc[1]), (acc[2], acc[3])])
    second_mix = _hadamard_pairs(total, [(acc[0], acc[2])])
    initial = np.concatenate([a.initial for a in algs]) / 2.0
    measurement = tuple(1 if i == acc[0] else 0 for i in range(total))
    return QQA(
        arity=sum(a.arity for a in algs),
        amplitudes=total,
        initial=initial,
        steps=steps + (first_mix, second_mix),
        measurement=measurement,
    )


def majority_even4_construct(a1: QQA, a2: QQA, a3: QQA, a4: QQA) -> ConstructionResult:
    """Bounded-error algorithm accepting iff at least 3 of 4 sub-functions accept.

    Ties (exactly 2 true) are rejected.  Inputs need the same accepting
    discipline as :func:`and_construct`; success probability is b^2/16 for b
    true sub-functions, so the worst case over inputs is 9/16.
    """
    algs = (a1, a2, a3, a4)
    algorithm = _majority_pipeline(algs)
    target = majority_compose([computed_function(a) for a in algs], even=True)
    return ConstructionResult(algorithm, target, guaranteed_p=9 / 16, queries=algorithm.query_count)


def majority3_construct(a1: QQA, a2: QQA, a3: QQA) -> ConstructionResult:
    """Bounded-error algorithm accepting iff at least 2 of 3 sub-functions accept.

    Implemented as the four-way combiner with a constant-1 algorithm (reading
    no variables) in the last slot, which turns the tie-rejecting four-way
    majority into the odd three-way one at the same 9/16 floor.
    """
    algs = (a1, a2, a3)
    filler = constant_one_algorithm(num_amplitudes=1, arity=0, queries=0)
    algorithm = _majority_pipeline((*algs, filler))
    target = majority_compose([computed_function(a) for a in algs], even=False)
    return ConstructionResult(algorithm, target, guaranteed_p=9 / 16, queries=algorithm.query_count)
