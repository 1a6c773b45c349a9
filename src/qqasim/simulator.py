"""Quantum query algorithms: data model, simulation, and verification.

An algorithm is a fixed pipeline over ``m`` basis states: input-independent
unitary steps interleaved with query steps whose diagonal ±1 signs depend on
the input bits, followed by a 0/1 value assignment to every basis state.
Running it on an n-bit input yields each value with probability equal to the
summed squared magnitudes of the amplitudes assigned to it.

Only the number of query steps counts toward complexity; unitary steps are
free.  The whole model is immutable, so every question asked of one
algorithm has one answer.  One function checks every algorithm in one
walk over its steps, :func:`_assembled`: it stacks the gates :class:`QQA`
is given, and takes the stacks of algorithms made before as checked from
the combiners and transforms.  So each gate is checked for unitarity once,
in a batch with the other new gates of the algorithm that brings it in.
Two algorithms may share one read-only stack of gates.
:func:`computed_function`, :func:`is_exact`
and :func:`check_property` share one simulation per
algorithm object: the first of them to be called keeps the answers (never
the states) on the object, taken in one pass over the states'
magnitudes.  :func:`verify` simulates on every call and keeps nothing.
Each answer, like :func:`verify`'s worst case, is a value with the first
input, in row order, that reaches it, taken by one helper, :func:`_first`.
Everything here is safe to call from concurrent workers: the answers never
differ between calls, so two racing first calls at worst both simulate.

An algorithm is simulated from its fields alone, so two algorithms with
equal fields have bit-identical states, however each was made (by a
combiner, a transform, ``dataclasses.replace`` or a document).  The
combiners in :mod:`qqasim.constructors` run k parts side by side on
disjoint variable blocks and then mix them.  A large batch is searched for
that structure in the gates themselves: the first steps run once per
independent block of amplitudes on that block's own inputs, and the steps
that mix the blocks run once per distinct state, with an index that gives
each input its state: the 4096 inputs of a ``maj_even4`` composite share
256.  Each state is bit-identical to a plain pass of every step over all
2^n rows, which the tests keep as the oracle.  Every path applies the
steps through one tiled kernel, :func:`_evolve_rows`; :func:`trace` runs
it a step at a time, and :func:`run` is :func:`trace`'s last state.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .boolfun import (
    TruthTable, _arity, _check_input, _integer, _is_integer, all_inputs, bit_string,
)
from .linalg import NORM_TOL, UNITARY_TOL, _check_tol, _numbers, _unitarity_errors, _within


@dataclass(frozen=True)
class QueryGate:
    """Per-amplitude variable assignment; ``None`` leaves an amplitude alone.

    On input X the gate is the diagonal matrix whose j-th entry is -1 when
    the variable assigned to amplitude j has value 1, and +1 otherwise.
    The assignments are stored as a tuple; :class:`QQA` checks them against
    its arity and amplitude count.
    """

    assignments: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))


def _query_gate(gate: QueryGate, k: int, m: int, arity: int) -> tuple:
    """``(gate, None)`` with every variable an ``int``, or ``(gate, what is wrong)`` if
    ``gate`` is ``steps[k]``; the gate is copied only if a variable is not an ``int`` yet."""
    assignments = gate.assignments
    if len(assignments) != m:
        return gate, f"steps[{k}].query: query gate needs {m} assignments"
    convert = False
    for j, v in enumerate(assignments):
        if v is None:
            continue
        if type(v) is not int:
            if not _is_integer(v):
                return gate, f"steps[{k}].query[{j}]: expected None or a variable index, got {v!r}"
            convert = True
        if not 0 <= v < arity:
            return gate, f"steps[{k}].query[{j}]: variable out of range for arity {arity}"
    if convert:
        gate = QueryGate(None if v is None else int(v) for v in assignments)
    return gate, None


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _measurement(values, m: int) -> tuple:
    """``values`` as a tuple of ``m`` ``int`` values 0 or 1, once checked."""
    measurement = tuple(values) if np.iterable(values) else ()
    if len(measurement) == m:
        if set(map(type, measurement)) == {int} and set(measurement) <= {0, 1}:
            return measurement
        if all(_is_integer(v) and v in (0, 1) for v in measurement):
            return tuple(int(v) for v in measurement)
    raise ValueError(f"measurement must assign 0 or 1 to each of the {m} outputs")


@dataclass(frozen=True, eq=False)
class QQA:
    """A quantum query algorithm over ``amplitudes`` basis states.

    ``steps`` holds unitary matrices and :class:`QueryGate` objects in
    execution order; ``measurement`` assigns an output value (0 or 1) to each
    basis state.  Construction checks every field: unitarity of every gate
    at ``UNITARY_TOL``, all gates in one batch, unit norm of the initial
    state at ``NORM_TOL``, every shape, an arity of at most ``MAX_ARITY``,
    and integer sizes, variables (in ``0..arity-1``) and measurement values
    (never booleans; numpy integers are stored as ``int``, in query gates
    too).  Errors name the field as a document does, such as
    ``steps[k].query[j]``, and the first failing step.  The stored gates are
    read-only views of one ``(gates, m, m)`` array, float64 when no gate has
    an imaginary part other than +0.0 and complex otherwise.  Loading, the
    built-ins and ``dataclasses.replace`` come here, and :func:`_assembled`
    checks and stacks every field in its one walk over the steps.
    """

    arity: int
    amplitudes: int
    initial: np.ndarray
    steps: tuple
    measurement: tuple
    #: The answers of the first simulation; never copied by ``dataclasses.replace``.
    _memo: _Answers | None = field(default=None, init=False, repr=False)
    #: The ``(gates, m, m)`` array whose read-only views the unitary steps are.
    _gates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("arity", "amplitudes"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        vars(self).update(vars(_assembled(
            self.arity, self.initial, None, 0, self.steps, self.measurement, self.amplitudes)))

    @property
    def query_count(self) -> int:
        """Number of query steps; the complexity measure."""
        return sum(1 for s in self.steps if isinstance(s, QueryGate))

    def accepting_outputs(self) -> tuple:
        """Indices of basis states assigned value 1."""
        return tuple(i for i, v in enumerate(self.measurement) if v == 1)


def _assembled(arity: int, initial, gates: np.ndarray | None, trusted: int, steps,
               measurement, m=None) -> QQA:
    """An algorithm on ``gates``, a ``(k, m, m)`` stack, once every field is checked.

    The one check of every algorithm, in one walk over its steps; errors
    name the field as a document does, and the first failing step, and a
    gate or initial state that misses its tolerance is reported with its
    miss.  The first ``trusted`` gates must have passed it already (the
    combiners and transforms take them from validated algorithms); the rest
    are checked in one batch.  Each entry of ``steps`` that is not a
    :class:`QueryGate` stands for the next gate of ``gates`` and becomes a
    read-only view of it; without ``gates`` (:class:`QQA`, which gives
    ``m``) it is a new gate, converted to complex, shape-checked and stacked
    if every step before it is well formed.  A float64 stack is kept frozen,
    not copied.  A complex one whose imaginary parts are all +0.0, bit for
    bit, is stored as a float64 copy of its real parts; any other imaginary
    part (-0.0, NaN or nonzero) keeps it complex and uncopied, so a document
    saves as it was loaded.  The initial state is a read-only copy.
    """
    arity = _arity(arity, 0)
    m = gates.shape[1] if m is None else m
    if m < 1:
        raise ValueError(f"amplitudes must be positive, got {m}")
    initial = _numbers(initial)
    if initial is None:
        raise ValueError(f"initial: expected {m} amplitudes, got a ragged or non-numeric array")
    if initial.shape != (m,):
        raise ValueError(f"initial state must have shape ({m},), got {initial.shape}")
    norm = float(np.square(initial.view(float)).sum())  # sum of |x|^2, as a drift names it too
    if not _within(abs(norm - 1.0), NORM_TOL):
        raise ValueError(f"initial: state is not unit-norm (norm {norm})")
    checked, at, malformed = [], [], None  # at: the step each gate stands at
    for k, step in enumerate(steps):
        if isinstance(step, QueryGate):
            step, malformed = _query_gate(step, k, m, arity)
            if malformed:
                break
        else:
            if gates is None:
                step = _numbers(step)
                shape = "a ragged or non-numeric array" if step is None else step.shape
                if shape != (m, m):
                    malformed = f"steps[{k}].unitary: expected a {m}x{m} matrix, got {shape}"
                    break
            at.append(k)
        checked.append(step)
    if gates is None:
        # A new array that owns its data, so no view of it can be made writeable again.
        gates = np.array([checked[k] for k in at] or np.empty((0, m, m)), dtype=complex)
    if gates.dtype == complex and not gates.imag.view(np.uint64).any():
        gates = gates.real.copy()
    for k, gate in zip(at, _freeze(gates)):
        checked[k] = gate
    if len(gates) > trusted:  # the gates before a malformed step; a failing one is named first
        errors = _unitarity_errors(gates[trusted:len(at)])
        failing = np.flatnonzero(~_within(errors, UNITARY_TOL))
        if failing.size:
            k, miss = at[trusted + failing[0]], float(errors[failing[0]])
            raise ValueError(f"steps[{k}].unitary: matrix is not unitary within {UNITARY_TOL} "
                             f"(largest |UU† - I| entry {miss})")
    if malformed:
        raise ValueError(malformed)
    algorithm = object.__new__(QQA)
    algorithm.__dict__.update(
        arity=arity, amplitudes=m, initial=_freeze(initial), steps=tuple(checked),
        measurement=_measurement(measurement, m), _memo=None, _gates=gates,
    )
    return algorithm


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Initial state plus the state after every step, for one input."""

    input: str
    states: tuple


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Success probabilities of an algorithm against a target table, on every input.

    ``success[i]`` is the probability of the target's value on input
    ``bit_string(i, arity)``; ``witness`` is the first input, in row order,
    whose success probability is ``worst_case_p``.
    """

    success: np.ndarray
    exact: bool
    worst_case_p: float
    queries: int
    witness: str

    @cached_property
    def per_input(self) -> dict:
        """``success`` keyed by input string, built on first read."""
        arity = len(self.witness)  # one character per variable
        return dict(zip(_input_strings(arity), self.success.tolist()))


@lru_cache(maxsize=None)
def _input_strings(arity: int) -> tuple:
    """Every input string of an arity, in row order; one tuple per arity, kept."""
    return tuple(all_inputs(arity))


class StructuralProperty(enum.Enum):
    """Pre-measurement amplitude disciplines used as composition preconditions, each stated
    by its row of ``_DISCIPLINES``: a certain outcome on every input, or exactly one accepting
    output whose amplitude keeps to the values the name gives (ACCEPT_SIGNED_UNIT: both)."""

    CERTAIN_OUTCOME = "certain-outcome"
    ACCEPT_PLUS_ONE = "accepting-in-zero-plus-one"
    ACCEPT_MINUS_ONE = "accepting-in-zero-minus-one"
    ACCEPT_SIGNED_UNIT = "accepting-signed-unit"


#: Each property, stated once: the values its single accepting output's amplitude may take,
#: in a refusal's order (``None``: no such demand), and whether the outcome must be certain.
_Discipline = namedtuple("_Discipline", "values certain")
_DISCIPLINES = {
    StructuralProperty.CERTAIN_OUTCOME: _Discipline(None, True),
    StructuralProperty.ACCEPT_PLUS_ONE: _Discipline((0, 1), False),
    StructuralProperty.ACCEPT_MINUS_ONE: _Discipline((0, -1), False),
    StructuralProperty.ACCEPT_SIGNED_UNIT: _Discipline((-1, 0, 1), True),
}


def _allowed(which: StructuralProperty) -> str:
    """The values discipline ``which`` allows, as a refusal names them, such as ``{0, +1}``."""
    return "{" + ", ".join(f"{v:+d}" if v else "0" for v in _DISCIPLINES[which].values) + "}"


def _input_signs(a: QQA, input_bits: str) -> np.ndarray:
    """One input's sign table, once the input is checked: one complex row, like the states."""
    _check_input(input_bits, a.arity)
    return np.array([[-1.0 if bit == "1" else 1.0 for bit in input_bits] + [1.0]], dtype=complex)


def _outcome(a: QQA, final: np.ndarray) -> dict:
    """Outcome probabilities ``{0: p0, 1: p1}`` of a final state."""
    probs = np.abs(final) ** 2
    values = np.array(a.measurement)
    return {0: float(probs[values == 0].sum()), 1: float(probs[values == 1].sum())}


def run(a: QQA, input_bits: str):
    """:func:`trace`'s last state, read-only, and its outcome probabilities ``{0: p0, 1: p1}``."""
    final = trace(a, input_bits).states[-1]
    return final, _outcome(a, final)


def trace(a: QQA, input_bits: str) -> SimulationTrace:
    """All intermediate states (initial first, final last) for one input.

    The steps run one at a time through the one kernel, :func:`_evolve_rows`.
    """
    signs = _input_signs(a, input_bits)
    states = [a.initial[np.newaxis]]
    for step in a.steps:
        states.append(_evolve_rows(states[-1].copy(), signs, (step,)))
    _unit_norm(states[-1], lambda _: input_bits)
    return SimulationTrace(input_bits, tuple(_freeze(s[0]) for s in states))


def run_all(a: QQA) -> np.ndarray:
    """Final states for every input, as a ``(2**arity, amplitudes)`` array.

    Row i is the pre-measurement state on input ``bit_string(i, arity)``.
    All inputs run as one batch through :func:`_evolve_rows`: a unitary step
    is a matmul, and a query step a gather-multiply by a
    ``(2**arity, arity + 1)`` table of ±1 signs whose last column, always
    +1, serves the unqueried amplitudes.  An algorithm whose gates keep
    blocks of amplitudes on disjoint variables apart up to its last query,
    as every combiner's do, runs those steps once per block on the block's
    own inputs when it has at least ``_BLOCK_ROWS`` inputs, and the steps
    after them once per distinct state (:func:`_block_states`); its rows
    are gathered from those states, bit-identical to the whole batch.  When
    the initial state and every gate have zero imaginary part, as in every
    built-in and constructed algorithm, the batch runs in float64 on the
    stored float64 gates and the result is float64; otherwise the same code
    runs in complex.  A row whose norm drifts from 1 by more than
    ``NORM_TOL`` is an error that names the first such input.
    """
    return _per_input(*_simulate(a))


def _simulate(a: QQA) -> tuple:
    """``(states, index)`` of :func:`_final_states`, once every state is unit-norm.

    The one simulation behind :func:`run_all`, :func:`verify` and :func:`_answers`.
    """
    states, index = _final_states(a)
    return _unit_norm(states, lambda row: bit_string(row, a.arity), index), index


def _per_input(values: np.ndarray, index) -> np.ndarray:
    """``values`` of the distinct states gathered onto every input, in row order."""
    return values if index is None else values[index]


def _unit_norm(states: np.ndarray, input_of, index=None) -> np.ndarray:
    """``states``, once every row is unit-norm within ``NORM_TOL``.

    Input i ran on row ``index[i]`` (on row i without an index) and is
    named ``input_of(i)``; the error names the first input that drifts.
    """
    norms = np.einsum("ij,ij->i", states, states.conj()).real
    held = _within(np.abs(norms - 1.0), NORM_TOL)
    if not held.all():
        at = int(np.flatnonzero(~_per_input(held, index))[0])
        raise RuntimeError(
            f"state norm drifted to {_per_input(norms, index)[at]} on input {input_of(at)!r}"
        )
    return states


#: Rows of the tiles that every step runs over: 64 KB at 16 amplitudes in
#: float64, small enough to stay off the allocator's mmap path.
_TILE = 512

#: Fewest rows of a batch that is searched for independent blocks.  The block
#: path costs 0.2-0.4 ms a `verify` whatever the batch.  The plain pass takes
#: 0.10-0.15 ms on `or` at 256 rows, 0.2 ms on `majority3` at 512 and 1024,
#: 0.4 ms at 2048 and 1.1 ms on `maj_even4` at 4096 (shared 2-vCPU VM).
_BLOCK_ROWS = 2048


def _final_states(a: QQA) -> tuple:
    """``(states, index)``, unchecked: input i ends in ``states[index[i]]``.

    The dense pass gives one row per input and no index.  Only a batch of
    at least ``_BLOCK_ROWS`` rows is searched for independent blocks
    (:func:`_blocks`): below that, the search and the block path's fixed
    costs are more than they save.
    """
    n = a.arity
    gates = a._gates
    real = not a.initial.imag.any()
    if gates.dtype == complex:  # an imaginary part other than +0.0; all may still be ±0
        real = real and not gates.imag.any()
        gates = np.ascontiguousarray(gates.real) if real else gates
    gates = iter(gates)
    steps = [step if isinstance(step, QueryGate) else next(gates) for step in a.steps]
    initial = a.initial.real if real else a.initial
    split = _blocks(a) if 1 << n >= _BLOCK_ROWS else None
    if split is None:
        states = np.tile(initial, (1 << n, 1))
        return _evolve_rows(states, _sign_table(tuple(range(n)), n), steps), None
    return _block_states(initial, steps, n, *split)


def _block_states(initial: np.ndarray, steps: list, n: int, masks, reads, prefix: int):
    """The distinct final states on the ``2**n`` inputs, and each input's row among them.

    ``steps[:prefix]`` run once per block, on the values of its own
    variables only, in full-width rows that are zero outside the block.
    Each block keeps its rows that differ bit for bit (signed zeros and NaNs
    count); the rest of the steps run on the sums of one kept row per block,
    added in block order.  So every dot product is one the whole batch
    computes, and ``states[index[i]]`` is bit-identical to its row i.
    """
    m = len(initial)
    stacked = _evolve_rows(
        np.repeat(np.where(masks, initial, 0), [1 << len(v) for v in reads], axis=0),
        np.concatenate([_sign_table(variables, n) for variables in reads]),
        steps[:prefix],
    )
    # Each block's distinct rows become one axis of the product, the first
    # block outermost; each amplitude is nonzero in one block at most.
    states = np.zeros((1, m), dtype=stacked.dtype)
    index = np.zeros(1, dtype=np.intp)
    start = 0
    for variables in reads:
        block = stacked[start:start + (1 << len(variables))]
        start += len(block)
        distinct, where = _distinct_rows(block)
        states = (states[:, np.newaxis] + distinct).reshape(-1, m)
        index = (index[:, np.newaxis] * len(distinct) + where).ravel()
    # So far input bits run in block order; a composite's blocks read 0..n-1 in that order.
    order = [v for variables in reads for v in variables]
    if order != list(range(n)):
        grid = index.reshape((2,) * len(order)).transpose(np.argsort(order))
        grid = grid.reshape([2 if v in order else 1 for v in range(n)])
        index = np.broadcast_to(grid, (2,) * n).ravel()
    # The steps after the prefix hold no query, so they need no sign table of 2^n rows.
    return _evolve_rows(states, _sign_table((), n), steps[prefix:]), index


def _distinct_rows(rows: np.ndarray) -> tuple:
    """The rows of ``rows`` that differ bit for bit, in first-seen order, and where each row is."""
    width = rows.shape[1] * rows.itemsize
    data = rows.tobytes()
    seen: dict = {}
    where = [seen.setdefault(data[k:k + width], len(seen)) for k in range(0, len(data), width)]
    return np.frombuffer(b"".join(seen), dtype=rows.dtype).reshape(len(seen), -1), np.array(where)


@lru_cache(maxsize=64)
def _sign_table(variables: tuple, n: int) -> np.ndarray:
    """±1 signs of the ``n`` variables on every value of ``variables``, plus a +1 column.

    Row i holds the values ``bit_string(i, len(variables))`` of ``variables``
    in their order, the first outermost; a variable not among them reads 0.
    The last 64 tables asked for are kept, read-only: a block's has a few
    rows, and the dense pass asks for one per arity.
    """
    signs = np.ones((2,) * len(variables) + (n + 1,))
    for k, v in enumerate(variables):
        signs[(slice(None),) * k + (1, ..., v)] = -1.0  # where the k-th variable is 1
    return _freeze(signs.reshape(-1, n + 1))


def _evolve_rows(states: np.ndarray, signs: np.ndarray, steps) -> np.ndarray:
    """Run ``steps`` in place on every row of ``states``; row i's query signs are ``signs[i]``.

    The one loop over an algorithm's steps (:func:`trace` runs it a step at
    a time).  A query step is a gather-multiply by the sign table, whose
    last column serves the unqueried amplitudes, and a unitary step a
    matmul.  Rows run ``_TILE`` at a time, back and forth between the tile
    and one buffer of at most ``_TILE`` rows, so each row's arithmetic is
    the whole batch's and no second array of its size is made.
    """
    buffer = np.empty((min(_TILE, len(states)), states.shape[1]), dtype=states.dtype)
    for start in range(0, len(states), _TILE):
        tile, rows = states[start:start + _TILE], signs[start:start + _TILE]
        source, target = tile, buffer[:len(tile)]
        for step in steps:
            if isinstance(step, QueryGate):
                source *= rows.take([-1 if v is None else v for v in step.assignments], axis=1)
            else:
                np.matmul(source, step, out=target)
                source, target = target, source
        if source is not tile:
            tile[...] = source
    return states


def _blocks(a: QQA):
    """The independent blocks of an algorithm's first steps, or ``None`` if there are none.

    Blocks are the connected components of the exact nonzero pattern of the
    gates before the last query that hold initial amplitude.  Returns a
    ``(blocks, m)`` mask of each block's amplitudes, the variables each
    block's queries read in ascending order, and the length of the longest
    prefix of steps whose gates keep the components apart.  The blocks are
    ordered by their last variable, those that read none first.  ``None``
    unless there is a query, two or more blocks, and no variable read in two
    of them.  The search is not cached: a key of the gates' nonzero pattern
    and the query variables would never repeat, as every composite of the
    catalog has its own (all 256 ``or`` entries), though they share 2-4 splits.
    """
    queried = [isinstance(step, QueryGate) for step in a.steps]
    if True not in queried:
        return None
    last = len(queried) - 1 - queried[::-1].index(True)
    before = last - sum(queried[:last])  # the gates before the last query
    gates = a._gates
    reach = gates[:before].any(axis=0)  # nonzero anywhere, exactly
    reach |= reach.T
    np.fill_diagonal(reach, True)
    while True:  # each squaring doubles the length of the paths it follows
        wider = reach @ reach
        if (wider == reach).all():
            break
        reach = wider
    labels = reach.argmax(axis=1)  # the first amplitude of each one's component
    label = labels.tolist()
    live = set(label[j] for j in np.flatnonzero(a.initial).tolist())
    if len(live) < 2:
        return None
    reader = {}  # a dict beats a (queries x m) table here: these are a few dozen entries
    for step in a.steps[:last + 1]:
        if isinstance(step, QueryGate):
            for v, at in zip(step.assignments, label):
                if v is not None and at in live and reader.setdefault(v, at) != at:
                    return None
    reads = {at: () for at in live}
    for v in sorted(reader):
        reads[reader[v]] += (v,)
    order = sorted(live, key=lambda at: reads[at][-1:])
    mixing = np.logical_and(gates[before:], labels[:, np.newaxis] != labels).any(axis=(1, 2))
    prefix = last + 1 + (int(mixing.argmax()) if mixing.any() else len(mixing))
    return labels == np.array(order)[:, np.newaxis], [reads[at] for at in order], prefix


def _p_one(a: QQA, states: np.ndarray) -> np.ndarray:
    """P(output = 1) of every row of ``states``."""
    mask = np.array(a.measurement) == 1
    return (np.abs(states[:, mask]) ** 2).sum(axis=1)


def _first(values: np.ndarray, index, largest: bool = False) -> tuple:
    """``(value, at)``: the least (``largest``: greatest) of ``values``, one per distinct state,
    over the inputs (:func:`_per_input`), and ``at``, the first input in row order reaching it."""
    values = _per_input(values, index)
    at = int(values.argmax() if largest else values.argmin())
    return float(values[at]), at


@dataclass(frozen=True)
class _Answers:
    """What the questions asked of one algorithm need from its simulation.

    Only answers are kept, no per-input array: a catalog keeps hundreds of
    4096-input algorithms alive.  Each answer but ``bits`` is a
    ``(value, first input)`` pair of :func:`_first`, whose value answers its
    question for any tolerance and whose input witnesses it.
    """

    #: Majority outcome on every input, in row order.
    bits: bytes
    #: Least ``|P(1) - 1/2|``.
    margin: tuple
    #: Worst-case success probability against ``bits``.
    agreement: tuple
    #: Least, over the inputs, of the largest basis-state probability.
    peak: tuple
    #: Per discipline with allowed values, the greatest distance of the single
    #: accepting amplitude from them; empty unless exactly one output accepts.
    spread: dict


def _answers(a: QQA) -> _Answers:
    """The algorithm's answers, simulating it on the first call only.

    Squaring is monotone, so a state's largest probability is the square of
    its largest magnitude; the accepting amplitude ``c`` is as far from a
    discipline as the least ``|c - v|`` over its values ``v``, taken exactly.
    Each is taken once per distinct state of :func:`_simulate` and reduced
    over the inputs by :func:`_first`.  The largest magnitude of each state
    is taken one column at a time: a maximum along each short row is several
    times slower, and on the dense path a ``(2^n, m)`` temporary beside the
    states is enough to make the allocator hand the heap back and fault it
    in again for the next algorithm.
    """
    if a._memo is not None:
        return a._memo
    states, index = _simulate(a)
    p_one = _p_one(a, states)
    majority = p_one > 0.5
    top = np.abs(states[:, 0])
    for column in states.T[1:]:
        np.maximum(top, np.abs(column), out=top)
    top *= top  # each state's largest basis-state probability
    spread = {}
    accepting = a.accepting_outputs()
    if len(accepting) == 1:
        column = states[:, accepting[0]]
        for which, row in _DISCIPLINES.items():
            if row.values is not None:
                distance = reduce(np.minimum, [np.abs(column - v) for v in row.values])
                spread[which] = _first(distance, index, largest=True)
    answers = _Answers(
        bits=_per_input(majority, index).astype(np.uint8).tobytes(),
        margin=_first(np.abs(p_one - 0.5), index),
        agreement=_first(np.where(majority, p_one, 1.0 - p_one), index),
        peak=_first(top, index),
        spread=spread,
    )
    object.__setattr__(a, "_memo", answers)
    return answers


def verify(a: QQA, f: TruthTable, tol: float = NORM_TOL) -> VerificationReport:
    """Exhaustively compare an algorithm against a target truth table.

    ``exact`` means the worst-case success probability is within ``tol`` of 1.
    Each call simulates the algorithm once and keeps nothing on it.
    """
    _check_tol(tol, probability=True)
    if a.arity != f.arity:
        raise ValueError(
            f"arity mismatch: algorithm reads {a.arity} variables, function has {f.arity}"
        )
    states, index = _simulate(a)
    p_one = _per_input(_p_one(a, states), index)
    target = np.frombuffer(f.bits, dtype=np.uint8)
    success = _freeze(np.where(target == 1, p_one, 1.0 - p_one))
    worst, at = _first(success, None)
    return VerificationReport(
        success, _within(1.0 - worst, tol), worst, a.query_count, bit_string(at, a.arity)
    )


def computed_function(a: QQA, tol: float = NORM_TOL) -> TruthTable:
    """The majority-outcome truth table of an algorithm.

    Fails if on some input neither value has probability above 1/2, in which
    case the algorithm computes nothing even under bounded error; the error
    names the input closest to a tie.
    """
    _check_tol(tol, probability=True)
    if a.arity < 1:
        raise ValueError("algorithm must read at least one variable to define a truth table")
    answers = _answers(a)
    margin, closest = answers.margin
    if _within(margin, tol):
        raise ValueError(
            f"no outcome has probability above 1/2 on input {bit_string(closest, a.arity)}"
        )
    return TruthTable(a.arity, answers.bits)


def is_exact(a: QQA, tol: float = NORM_TOL) -> bool:
    """Whether ``verify(a, computed_function(a), tol).exact`` holds, without simulating twice."""
    _check_tol(tol, probability=True)
    return _within(1.0 - _answers(a).agreement[0], tol)


def check_property(a: QQA, which: StructuralProperty, tol: float = NORM_TOL) -> bool:
    """Whether discipline ``which`` holds on every input, as its row of ``_DISCIPLINES`` says."""
    _check_tol(tol, probability=True)
    if not isinstance(which, StructuralProperty):
        raise ValueError(f"unknown property {which!r}")
    row, answers = _DISCIPLINES[which], _answers(a)
    certain = not row.certain or _within(1.0 - answers.peak[0], tol)
    # No spread without a single accepting output: NaN, which never passes.
    spread, _ = answers.spread.get(which, (np.nan, None))
    return certain and (row.values is None or _within(spread, tol))


#: The precondition of output inversion, which :func:`_require` takes beside the disciplines.
_EXACT = "exact"


def _require(a: QQA, need: str, *properties: StructuralProperty | str) -> StructuralProperty | str:
    """The first of ``properties`` that ``a`` holds, else ``ValueError("{need}; {why}")``.

    The one wording of a transform's or combiner's refusal.  ``properties``
    are disciplines, or ``_EXACT`` alone; a ``{}`` in ``need`` stands for the
    values they allow, such as ``{0, +1} or {0, -1}``.  ``why`` names the
    first input, in row order, that witnesses the refusal: the worst case if
    exactness is asked for; else the least certain input if certainty is
    asked for and fails; else the number of accepting outputs if it is not
    one; else, per discipline, where the accepting amplitude is furthest from it.
    """
    for which in properties:
        if is_exact(a) if which is _EXACT else check_property(a, which):
            return which
    answers = _answers(a)
    if "{}" in need:
        need = need.format(" or ".join(map(_allowed, properties)))
    if _EXACT in properties:
        worst, at = answers.agreement
        why = f"worst-case p = {worst:.6f} on input {bit_string(at, a.arity)}"
    elif (any(_DISCIPLINES[which].certain for which in properties)
          and not check_property(a, StructuralProperty.CERTAIN_OUTCOME)):
        why = f"no outcome is certain on input {bit_string(answers.peak[1], a.arity)}"
    elif not answers.spread:
        why = f"it has {a.measurement.count(1)} accepting outputs"
    else:
        why = "its accepting amplitude leaves " + " and ".join(
            f"{_allowed(which)} on input {bit_string(answers.spread[which][1], a.arity)}"
            for which in properties
        )
    raise ValueError(f"{need}; {why}")
