"""Quantum query algorithms: data model, simulation, and verification.

An algorithm is a fixed pipeline over ``m`` basis states: input-independent
unitary steps interleaved with query steps whose diagonal ±1 signs depend on
the input bits, followed by a 0/1 value assignment to every basis state.
Running it on an n-bit input yields each value with probability equal to the
summed squared magnitudes of the amplitudes assigned to it.

Only the number of query steps counts toward complexity; unitary steps are
free.  The whole model is immutable, so every question asked of one
algorithm has one answer.  Construction checks all of an algorithm's gates
for unitarity in one batch.  :func:`computed_function`, :func:`is_exact`
and :func:`check_property` share one :func:`run_all` simulation per
algorithm object: the first of them to be called keeps the answers (never
the per-input states) on the object, taken in one pass over the states'
magnitudes, and :func:`verify` leaves them there too.
Everything here is safe to call from concurrent workers: the answers never
differ between calls, so two racing first calls at worst both simulate.

The combiners in :mod:`qqasim.constructors` run k parts side by side on
disjoint variable blocks and end with a short input-independent tail, so
the final state on X = (X1..Xk) is the sum over the blocks of each part's
final state on its own Xi, scaled and pushed through the tail.  Such an
algorithm carries a record of its parts, and :func:`run_all` simulates it
from them: each part on its own 2^{n_i} inputs (sum over i of 2^{n_i} rows
in place of 2^n rows times every step), then one sum of the k blocks onto
the 2^n rows.  A part keeps its final states once simulated, since parts
are small and one part object is shared by many composites (the catalog
builds 256 majorities from 4 of them).

An algorithm with no such record (one derived from a composite by
``dataclasses.replace`` or a transform, or reloaded from a document) runs
the dense kernel, which finds the same structure in the gates themselves
when the batch has more rows than a gate has entries: the first steps run
once per independent block of amplitudes on that block's own inputs, and
only the steps that mix the blocks run on all 2^n rows.  Its states are
bit-identical to a plain pass of every step over all 2^n rows, which the
tests keep as the oracle of both paths.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boolfun import MAX_ARITY, TruthTable, bit_string, _check_input
from .linalg import NORM_TOL, UNITARY_TOL, _unitarity_errors


@dataclass(frozen=True)
class QueryGate:
    """Per-amplitude variable assignment; ``None`` leaves an amplitude alone.

    On input X the gate is the diagonal matrix whose j-th entry is -1 when
    the variable assigned to amplitude j has value 1, and +1 otherwise.
    """

    assignments: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        for v in self.assignments:
            if v is not None and (
                isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0
            ):
                raise ValueError(f"variable index must be None or a non-negative int, got {v!r}")


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class QQA:
    """A quantum query algorithm over ``amplitudes`` basis states.

    ``steps`` holds unitary matrices and :class:`QueryGate` objects in
    execution order; ``measurement`` assigns an output value (0 or 1) to each
    basis state.  Construction validates unitarity of every gate at
    ``UNITARY_TOL``, all gates in one batch, unit norm of the initial state at
    ``NORM_TOL``, an arity of at most ``MAX_ARITY``, and an integer arity,
    amplitude count, variable indices and measurement values (never
    booleans; numpy integers are stored as ``int``).  The stored gates are
    read-only views of one ``(gates, m, m)`` complex array.
    """

    arity: int
    amplitudes: int
    initial: np.ndarray
    steps: tuple
    measurement: tuple
    #: The answers of the first simulation; never copied by ``dataclasses.replace``.
    _memo: _Answers | None = field(default=None, init=False, repr=False)
    #: The parts a combiner built this algorithm from, set by :func:`_composed`;
    #: never copied by ``dataclasses.replace``.
    _composition: _Composition | None = field(default=None, init=False, repr=False)
    #: Final states on every input, kept only once this algorithm has been
    #: simulated as a part of a composite; never copied by ``dataclasses.replace``.
    _part_states: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("arity", "amplitudes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be between 0 and {MAX_ARITY}, got {self.arity}")
        if self.amplitudes < 1:
            raise ValueError(f"need at least one amplitude, got {self.amplitudes}")
        m = self.amplitudes

        initial = np.array(self.initial, dtype=complex)
        if initial.shape != (m,):
            raise ValueError(f"initial state must have shape ({m},), got {initial.shape}")
        if not abs(float(np.sum(np.abs(initial) ** 2)) - 1.0) <= NORM_TOL:
            raise ValueError("initial: state is not unit-norm")
        object.__setattr__(self, "initial", _freeze(initial))

        steps, malformed = [], None
        for k, step in enumerate(self.steps):
            if isinstance(step, QueryGate):
                unknown = [v for v in step.assignments if v is not None and v >= self.arity]
                if len(step.assignments) != m:
                    malformed = f"step {k}: query gate needs {m} assignments"
                elif unknown:
                    malformed = (
                        f"step {k}: variable index {unknown[0]} out of range for arity {self.arity}"
                    )
            else:
                step = np.asarray(step, dtype=complex)
                if step.shape != (m, m):
                    malformed = f"step {k}: expected a {m}x{m} matrix, got {step.shape}"
            if malformed:
                break
            steps.append(step)
        # The gates before the first malformed step are checked in one batch;
        # a failing gate among them comes first, so it is the one named.
        gates = [k for k, step in enumerate(steps) if not isinstance(step, QueryGate)]
        stack = np.empty((len(gates), m, m), dtype=complex)
        for gate, k in zip(stack, gates):
            gate[...] = steps[k]
        failing = np.flatnonzero(~(_unitarity_errors(stack) <= UNITARY_TOL))
        if failing.size:
            raise ValueError(
                f"steps[{gates[failing[0]]}].unitary: matrix is not unitary within {UNITARY_TOL}"
            )
        if malformed:
            raise ValueError(malformed)
        for k, gate in zip(gates, _freeze(stack)):
            steps[k] = gate
        object.__setattr__(self, "steps", tuple(steps))

        measurement = tuple(self.measurement)
        if len(measurement) != m or any(
            isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v not in (0, 1)
            for v in measurement
        ):
            raise ValueError(f"measurement must assign 0 or 1 to each of the {m} outputs")
        object.__setattr__(self, "measurement", tuple(int(v) for v in measurement))

    @property
    def query_count(self) -> int:
        """Number of query steps; the complexity measure."""
        return sum(1 for s in self.steps if isinstance(s, QueryGate))

    def accepting_outputs(self) -> tuple:
        """Indices of basis states assigned value 1."""
        return tuple(i for i, v in enumerate(self.measurement) if v == 1)


@dataclass(frozen=True, eq=False)
class _Composition:
    """How a combiner built an algorithm from parts on disjoint variable blocks.

    Before its last ``tail`` steps the algorithm holds ``scale`` times the
    parts' states side by side, in block order, followed by zeros.
    """

    parts: tuple
    scale: float
    tail: int


def _composed(a: QQA, parts, scale: float, tail: int) -> QQA:
    """Record on ``a`` that its first steps run ``parts`` in parallel; returns ``a``.

    Only the facts that are cheap to check are checked: the arities add up,
    the parts fit in the amplitudes, the initial state is the scaled, zero-padded
    concatenation of the parts' initial states, and the last ``tail`` steps
    are unitary gates.
    """
    parts = tuple(parts)
    if sum(p.arity for p in parts) != a.arity:
        raise ValueError(f"the parts' arities do not add up to {a.arity}")
    width = sum(p.amplitudes for p in parts)
    if not 1 <= width <= a.amplitudes:
        raise ValueError(f"the parts' {width} amplitudes do not fit in {a.amplitudes}")
    expected = np.zeros(a.amplitudes, dtype=complex)
    expected[:width] = np.concatenate([p.initial for p in parts]) * scale
    if not float(np.abs(a.initial - expected).max()) <= NORM_TOL:
        raise ValueError("the initial state is not the scaled concatenation of the parts'")
    if not 0 <= tail <= len(a.steps) or any(
        isinstance(step, QueryGate) for step in a.steps[len(a.steps) - tail:]
    ):
        raise ValueError(f"the last {tail} steps are not all unitary gates")
    object.__setattr__(a, "_composition", _Composition(parts, scale, tail))
    return a


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
        return {bit_string(i, arity): float(p) for i, p in enumerate(self.success)}


class StructuralProperty(enum.Enum):
    """Pre-measurement amplitude disciplines used as composition preconditions."""

    #: On every input, one basis state holds all of the probability.
    CERTAIN_OUTCOME = "certain-outcome"
    #: Exactly one accepting output, and its amplitude is always 0 or +1.
    ACCEPT_PLUS_ONE = "accepting-in-zero-plus-one"
    #: Exactly one accepting output, and its amplitude is always 0 or -1.
    ACCEPT_MINUS_ONE = "accepting-in-zero-minus-one"
    #: CERTAIN_OUTCOME plus exactly one accepting output with amplitude in {-1, 0, +1}.
    ACCEPT_SIGNED_UNIT = "accepting-signed-unit"


#: The disciplines on the single accepting amplitude.
_ACCEPTING = (
    StructuralProperty.ACCEPT_PLUS_ONE,
    StructuralProperty.ACCEPT_MINUS_ONE,
    StructuralProperty.ACCEPT_SIGNED_UNIT,
)


def _signs(gate: QueryGate, input_bits: str, arity: int) -> np.ndarray:
    _check_input(input_bits, arity)
    out = np.ones(len(gate.assignments))
    for j, v in enumerate(gate.assignments):
        if v is not None:
            if v >= arity:
                raise ValueError(f"variable index {v} out of range for arity {arity}")
            if input_bits[v] == "1":
                out[j] = -1.0
    return out


def _evolve(a: QQA, input_bits: str, keep_intermediate: bool = False):
    state = a.initial
    states = [state]
    for step in a.steps:
        if isinstance(step, QueryGate):
            state = state * _signs(step, input_bits, a.arity)
        else:
            state = state @ step
        if keep_intermediate:
            states.append(state)
    norm = float(np.sum(np.abs(state) ** 2))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise RuntimeError(f"state norm drifted to {norm} on input {input_bits!r}")
    return states if keep_intermediate else state


def run(a: QQA, input_bits: str):
    """Final state and outcome probabilities ``{0: p0, 1: p1}`` for one input."""
    final = _evolve(a, input_bits)
    probs = np.abs(final) ** 2
    values = np.array(a.measurement)
    outcome = {0: float(probs[values == 0].sum()), 1: float(probs[values == 1].sum())}
    if not abs(outcome[0] + outcome[1] - 1.0) <= NORM_TOL:
        raise RuntimeError("outcome probabilities do not sum to 1")
    return final, outcome


def trace(a: QQA, input_bits: str) -> SimulationTrace:
    """All intermediate states (initial first, final last) for one input."""
    states = _evolve(a, input_bits, keep_intermediate=True)
    return SimulationTrace(input_bits, tuple(_freeze(s.copy()) for s in states))


def run_all(a: QQA) -> np.ndarray:
    """Final states for every input, as a ``(2**arity, amplitudes)`` array.

    Row i is the pre-measurement state on input ``bit_string(i, arity)``.
    All inputs run as one batch: a unitary step is one matmul, and a query
    step one gather-multiply by a ``(2**arity, arity + 1)`` table of ±1
    signs whose last column, always +1, serves the unqueried amplitudes.
    An algorithm a combiner built is simulated from its parts instead: each
    part's final states on its own inputs go through its rows of the tail
    product, and the k blocks are summed onto the 2^n rows, the first
    block's variables outermost.  Any other algorithm whose gates keep
    blocks of amplitudes on disjoint variables apart up to its last query
    (a rebuilt, transformed or reloaded composite) runs those steps once
    per block on the block's own inputs, when it has more inputs than a
    gate has entries; the result is bit-identical to the whole batch.
    When the initial state and every gate have zero imaginary part, as in
    every built-in and constructed algorithm, the batch runs in float64 and
    the result is float64; otherwise the same code runs in complex.
    """
    states = _final_states(a)
    norms = np.einsum("ij,ij->i", states, states.conj()).real
    if not float(np.abs(norms - 1.0).max()) <= NORM_TOL:
        raise RuntimeError("state norm drifted during batch simulation")
    return states


#: Rows of the tiles that the steps after a block prefix run over: 64 KB at 16
#: amplitudes in float64, small enough to stay off the allocator's mmap path.
_TILE = 512


def _final_states(a: QQA) -> np.ndarray:
    """:func:`run_all` without its norm check, for an algorithm and for each of its parts.

    Only a batch with more rows than a gate has entries is searched for
    independent blocks (:func:`_blocks`): below that, the search costs what
    it could save.
    """
    if a._composition is not None:
        return _composed_states(a, a._composition)
    n, m = a.arity, a.amplitudes
    gates = (step for step in a.steps if not isinstance(step, QueryGate))
    real = not (a.initial.imag.any() or any(g.imag.any() for g in gates))
    initial = a.initial.real if real else a.initial
    steps = [
        step if isinstance(step, QueryGate) else np.ascontiguousarray(step.real) if real else step
        for step in a.steps
    ]
    split = _blocks(a) if (1 << n) > m * m else None
    if split is None:
        return _evolve_rows(np.tile(initial, (1 << n, 1)), _sign_table(range(n), n), steps)
    return _block_states(initial, steps, n, *split)


def _block_states(initial: np.ndarray, steps: list, n: int, blocks: list, prefix: int):
    """Final states on all ``2**n`` inputs, running ``steps[:prefix]`` once per block.

    Each block runs on the values of its own variables only, in full-width
    rows that are zero outside the block, so every dot product is the one
    the whole batch would compute and the states are bit-identical to it.
    """
    m = len(initial)
    stacked = _evolve_rows(
        np.repeat(
            np.array([np.where(amplitudes, initial, 0) for amplitudes, _ in blocks]),
            [1 << len(variables) for _, variables in blocks],
            axis=0,
        ),
        np.concatenate([_sign_table(variables, n) for _, variables in blocks]),
        steps[:prefix],
    )
    # The batch grows by whole variables, the first outermost.  A block is
    # added once all its variables are rows of the batch, and broadcasts
    # along the axes of the other variables read so far.
    states = np.zeros((1, m), dtype=stacked.dtype)
    start = 0
    for _, variables in blocks:
        rows = stacked[start:start + (1 << len(variables))]
        start += len(rows)
        read = variables[-1] + 1 if variables else 0
        if len(states) < 1 << read:
            states = np.repeat(states, (1 << read) // len(states), axis=0)
        grid = states.reshape((2,) * read + (m,))
        grid += rows.reshape([2 if v in variables else 1 for v in range(read)] + [m])
    if len(states) < 1 << n:
        states = np.repeat(states, (1 << n) // len(states), axis=0)
    # The steps that mix the blocks run in place, a tile at a time, so no
    # second array of the batch's size is made.
    tail = steps[prefix:]
    if tail:
        buffer = np.empty((min(_TILE, 1 << n), m), dtype=states.dtype)
        for start in range(0, 1 << n, _TILE):
            tile = states[start:start + _TILE]
            for gate in tail:
                np.matmul(tile, gate, out=buffer)
                tile[...] = buffer
    return states


def _sign_table(variables, n: int) -> np.ndarray:
    """±1 signs of the ``n`` variables on every value of ``variables``, plus a +1 column.

    Row i holds the values ``bit_string(i, len(variables))`` of ``variables``
    in their order, the first outermost; a variable not among them reads 0.
    """
    signs = np.ones((2,) * len(variables) + (n + 1,))
    for k, v in enumerate(variables):
        signs[(slice(None),) * k + (1, ..., v)] = -1.0  # where the k-th variable is 1
    return signs.reshape(-1, n + 1)


def _evolve_rows(states: np.ndarray, signs: np.ndarray, steps) -> np.ndarray:
    """Run ``steps`` on every row of ``states``, whose query signs are the rows of ``signs``.

    A query step is one gather-multiply by the sign table, whose last column
    serves the unqueried amplitudes.
    """
    n = signs.shape[1] - 1
    spare = np.empty_like(states)  # unitary steps write here and swap: no fresh pages per step
    for step in steps:
        if isinstance(step, QueryGate):
            states *= signs[:, [n if v is None else v for v in step.assignments]]
        else:
            np.matmul(states, step, out=spare)
            states, spare = spare, states
    return states


def _blocks(a: QQA):
    """The independent blocks of an algorithm's first steps, or ``None`` if there are none.

    Blocks are the connected components of the exact nonzero pattern of the
    gates before the last query that hold initial amplitude.  Returns the
    blocks as (amplitude mask, the variables its queries read in ascending
    order) pairs, ordered by their last variable with the blocks that read
    none first, and the length of the longest prefix of steps whose gates
    keep the components apart.  ``None`` unless there is a query, two or more
    blocks, and no variable read in two of them.
    """
    last = max((k for k, step in enumerate(a.steps) if isinstance(step, QueryGate)), default=None)
    if last is None:
        return None
    m = a.amplitudes
    linked = np.eye(m, dtype=bool)
    for step in a.steps[:last]:
        if not isinstance(step, QueryGate):
            linked |= step != 0
    linked |= linked.T
    labels = np.arange(m)
    while True:  # each amplitude takes the smallest label among its neighbours
        spread = np.where(linked, labels, m).min(axis=1)
        if (spread == labels).all():
            break
        labels = spread
    label = labels.tolist()
    live = {label[j] for j in np.flatnonzero(a.initial).tolist()}
    if len(live) < 2:
        return None
    reader = {}
    for step in a.steps[:last + 1]:
        if isinstance(step, QueryGate):
            for v, at in zip(step.assignments, label):
                if v is not None and at in live and reader.setdefault(v, at) != at:
                    return None
    apart = labels[:, np.newaxis] != labels
    prefix = last + 1
    while prefix < len(a.steps) and not (a.steps[prefix] != 0)[apart].any():
        prefix += 1
    blocks = [
        (labels == at, sorted(v for v, read_by in reader.items() if read_by == at))
        for at in live
    ]
    return sorted(blocks, key=lambda block: block[1][-1:]), prefix


def _states_as_part(part: QQA) -> np.ndarray:
    """A part's final states, simulated on the first call only."""
    if part._part_states is None:
        object.__setattr__(part, "_part_states", _freeze(_final_states(part)))
    return part._part_states


def _composed_states(a: QQA, composition: _Composition) -> np.ndarray:
    """Final states of a composite, from its parts' final states on their own blocks."""
    blocks = [_states_as_part(part) for part in composition.parts]
    tail = a.steps[len(a.steps) - composition.tail:]
    real = all(b.dtype == np.float64 for b in blocks) and not any(g.imag.any() for g in tail)
    product = np.eye(a.amplitudes)
    for gate in tail:
        product = product @ (gate.real if real else gate)
    m = a.amplitudes
    states = np.zeros((1, m), dtype=np.float64 if real else complex)
    offset = 0
    for part, block in zip(composition.parts, blocks):
        # Scaling before the tail, as the dense kernel does, keeps the two
        # paths' worst cases equal to the last digit on the whole catalog.
        rows = (block * composition.scale) @ product[offset:offset + part.amplitudes]
        offset += part.amplitudes
        # The next block's variables are less significant: each row so far
        # becomes len(rows) consecutive rows, one per input of this block.
        states = np.repeat(states, len(rows), axis=0)
        grouped = states.reshape(-1, len(rows) * m)  # a view, one line per earlier row
        grouped += rows.reshape(1, -1)
    return states


def _p_one(a: QQA, states: np.ndarray) -> np.ndarray:
    """P(output = 1) for every input, in row order."""
    mask = np.array(a.measurement) == 1
    return (np.abs(states[:, mask]) ** 2).sum(axis=1)


@dataclass(frozen=True)
class _Answers:
    """What the questions asked of one algorithm need from its simulation.

    Only answers are kept, no per-input array: a catalog keeps hundreds of
    4096-input algorithms alive.  Each scalar answers its question for any
    tolerance.
    """

    #: Majority outcome on every input, in row order.
    bits: bytes
    #: Smallest ``|P(1) - 1/2|`` over the inputs, and the first input reaching it.
    margin: float
    closest: int
    #: Worst-case success probability against ``bits``.
    agreement: float
    #: Smallest, over the inputs, of the largest basis-state probability.
    peak: float
    #: Per accepting discipline, the largest distance of the single accepting
    #: amplitude from its allowed values; empty unless exactly one output accepts.
    spread: dict


def _remember(a: QQA, states: np.ndarray, p_one: np.ndarray) -> None:
    """Keep the answers of one simulation (``states``, ``p_one``) on the algorithm.

    Squaring is monotone, so the peak probability is the square of the peak
    magnitude, and the accepting amplitude's distances from 0, +1 and -1 are
    ``|c|``, ``|c - 1|`` and ``|c + 1|``.  The peak magnitude of each row is
    taken one column at a time: a maximum along each short row is several
    times slower, and a ``(2^n, m)`` temporary beside ``states`` is enough
    to make the allocator hand the heap back and fault it in again for the
    next algorithm.
    """
    margins = np.abs(p_one - 0.5)
    closest = int(margins.argmin())
    bits = (p_one > 0.5).astype(np.uint8)
    top = np.abs(states[:, 0])
    for column in states.T[1:]:
        np.maximum(top, np.abs(column), out=top)
    peak = float(top.min())
    spread = {}
    accepting = a.accepting_outputs()
    if len(accepting) == 1:
        column = states[:, accepting[0]]
        to_zero = np.abs(column)
        to_plus = np.minimum(to_zero, np.abs(column - 1.0))
        to_minus = np.minimum(to_zero, np.abs(column + 1.0))
        spread = {
            StructuralProperty.ACCEPT_PLUS_ONE: float(to_plus.max()),
            StructuralProperty.ACCEPT_MINUS_ONE: float(to_minus.max()),
            StructuralProperty.ACCEPT_SIGNED_UNIT: float(np.minimum(to_plus, to_minus).max()),
        }
    answers = _Answers(
        bits=bits.tobytes(),
        margin=float(margins[closest]),
        closest=closest,
        agreement=float(np.where(bits == 1, p_one, 1.0 - p_one).min()),
        peak=peak * peak,
        spread=spread,
    )
    object.__setattr__(a, "_memo", answers)


def _answers(a: QQA) -> _Answers:
    """The algorithm's answers, simulating it on the first call only."""
    if a._memo is None:
        states = run_all(a)
        _remember(a, states, _p_one(a, states))
    return a._memo


def verify(a: QQA, f: TruthTable, tol: float = NORM_TOL) -> VerificationReport:
    """Exhaustively compare an algorithm against a target truth table.

    ``exact`` means the worst-case success probability is within ``tol`` of 1.
    Each call simulates the algorithm once.
    """
    if a.arity != f.arity:
        raise ValueError(f"arity mismatch: algorithm has {a.arity}, function has {f.arity}")
    states = run_all(a)
    p_one = _p_one(a, states)
    if a._memo is None:
        _remember(a, states, p_one)
    target = np.frombuffer(f.bits, dtype=np.uint8)
    success = _freeze(np.where(target == 1, p_one, 1.0 - p_one))
    worst_at = int(success.argmin())
    worst = float(success[worst_at])
    return VerificationReport(
        success, worst >= 1.0 - tol, worst, a.query_count, bit_string(worst_at, a.arity)
    )


def computed_function(a: QQA, tol: float = NORM_TOL) -> TruthTable:
    """The majority-outcome truth table of an algorithm.

    Fails if on some input neither value has probability above 1/2, in which
    case the algorithm computes nothing even under bounded error; the error
    names the input closest to a tie.
    """
    if a.arity < 1:
        raise ValueError("algorithm must read at least one variable to define a truth table")
    answers = _answers(a)
    if answers.margin <= tol:
        raise ValueError(
            f"no outcome has probability above 1/2 on input {bit_string(answers.closest, a.arity)}"
        )
    return TruthTable(a.arity, answers.bits)


def is_exact(a: QQA, tol: float = NORM_TOL) -> bool:
    """Whether ``verify(a, computed_function(a), tol).exact`` holds, without simulating twice."""
    return _answers(a).agreement >= 1.0 - tol


def check_property(a: QQA, which: StructuralProperty, tol: float = NORM_TOL) -> bool:
    """Whether one of the pre-measurement amplitude disciplines holds on every input."""
    answers = _answers(a)
    certain = answers.peak >= 1.0 - tol
    if which is StructuralProperty.CERTAIN_OUTCOME:
        return certain
    if which not in _ACCEPTING:
        raise ValueError(f"unknown property {which!r}")
    spread = answers.spread.get(which)
    held = spread is not None and spread <= tol
    if which is StructuralProperty.ACCEPT_SIGNED_UNIT:
        return held and certain
    return held
