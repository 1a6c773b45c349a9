import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qqasim import simulator
from qqasim.algorithms import constant_one_algorithm
from qqasim.boolfun import MAX_ARITY, TruthTable, all_inputs, bit_string
from qqasim.catalog import SET_NAMES
from qqasim.constructors import (
    and_construct,
    majority3_construct,
    majority_even4_construct,
    or_construct,
)
from qqasim.linalg import block_diag
from qqasim.serialize import load, save
from qqasim.simulator import (
    QQA,
    QueryGate,
    StructuralProperty,
    check_property,
    computed_function,
    is_exact,
    run,
    run_all,
    trace,
    verify,
)
from qqasim.transforms import (
    invert_outputs,
    normalize_accepting_sign,
    permute_outputs,
    permute_variables,
)

#: Every (amplitudes, arity) shape the catalog simulates.
CATALOG_SHAPES = ("m4n3", "m4n4", "m8n6", "m16n6", "m16n7", "m16n8", "m13n9", "m16n12")

#: Every function that takes a probability tolerance, each asked with ``(a, tol)``.
_TOL_ASKS = [
    lambda a, tol: verify(a, TruthTable(1, b"\x00\x01"), tol),
    computed_function,
    is_exact,
    lambda a, tol: check_property(a, StructuralProperty.CERTAIN_OUTCOME, tol),
]
_TOL_ASK_IDS = ["verify", "computed_function", "is_exact", "check_property"]


def _with_phase_gate(a):
    """``a`` with a complex diagonal phase gate after its first query."""
    phase = np.diag(np.exp(1j * np.linspace(0.3, 2.1, a.amplitudes)))
    first_query = next(k for k, step in enumerate(a.steps) if isinstance(step, QueryGate))
    steps = a.steps[:first_query + 1] + (phase,) + a.steps[first_query + 1:]
    return QQA(a.arity, a.amplitudes, a.initial, steps, a.measurement)


def _zero_step(m=2, arity=1):
    initial = np.zeros(m)
    initial[0] = 1.0
    return QQA(arity, m, initial, (), (1,) + (0,) * (m - 1))


def _query_signs(gate, input_bits):
    """The ±1 diagonal of a query gate on one input, read off a one-query algorithm."""
    m = len(gate.assignments)
    a = QQA(len(input_bits), m, np.full(m, m ** -0.5), (gate,), (1,) + (0,) * (m - 1))
    final, _ = run(a, input_bits)
    return final * m ** 0.5


class TestQueryTransform:
    def test_sign_pattern(self):
        gate = QueryGate((0, 1, 0, 1))
        assert np.allclose(_query_signs(gate, "010"), [1, -1, 1, -1])

    def test_all_none_is_identity(self):
        gate = QueryGate((None, None, None))
        assert np.allclose(_query_signs(gate, "101"), np.ones(3))

    def test_zero_input_is_identity(self):
        gate = QueryGate((0, 1, 2, 0))
        assert np.allclose(_query_signs(gate, "000"), np.ones(4))

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError, match="out of range"):
            _query_signs(QueryGate((5,)), "01")


class TestRun:
    def test_accepting_input(self, eq3):
        final, probs = run(eq3, "111")
        assert np.allclose(final, [1, 0, 0, 0], atol=1e-9)
        assert probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_rejecting_input(self, eq3):
        final, probs = run(eq3, "001")
        assert np.allclose(final, [0, 0, 0, -1], atol=1e-9)
        assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_step_algorithm(self):
        a = _zero_step()
        final, probs = run(a, "0")
        assert np.allclose(final, a.initial)
        assert probs[1] == pytest.approx(1.0)

    def test_input_validation(self, eq3):
        with pytest.raises(ValueError):
            run(eq3, "01")
        with pytest.raises(ValueError):
            run(eq3, "01x")

    @pytest.mark.parametrize("bits", ["zz9", "0", "012", ""])
    def test_input_checked_without_a_query_step(self, bits):
        a = constant_one_algorithm(arity=2)
        for simulate in (run, trace):
            with pytest.raises(ValueError, match="expected a 2-bit input"):
                simulate(a, bits)


class TestTrace:
    def test_state_count(self, eq3):
        t = trace(eq3, "000")
        assert len(t.states) == len(eq3.steps) + 1

    def test_intermediate_states(self, eq3):
        t = trace(eq3, "110")
        assert np.allclose(t.states[2], [-0.5, -0.5, -0.5, -0.5], atol=1e-9)
        assert np.allclose(t.states[4], [-0.5, 2**-0.5, 0, -0.5], atol=1e-9)
        assert np.allclose(t.states[5], [0, 0, 0, -1], atol=1e-9)

    def test_pair_equality_row(self, pe4):
        t = trace(pe4, "0101")
        assert np.allclose(t.states[2], [2**-0.5, -(2**-0.5), 0, 0], atol=1e-9)
        assert np.allclose(t.states[5], [0, 0, 0, 1], atol=1e-9)

    def test_every_state_unit_norm(self, eq3, pe4):
        for a in (eq3, pe4):
            for x in all_inputs(a.arity):
                for state in trace(a, x).states:
                    assert abs(np.linalg.norm(state) - 1.0) <= 1e-9


def _entry_of_shape(catalog, shape):
    """The first catalog algorithm with ``shape``, as ``m<amplitudes>n<arity>``."""
    return next(
        e.algorithm
        for s in catalog.values()
        for e in s.entries
        if f"m{e.algorithm.amplitudes}n{e.algorithm.arity}" == shape
    )


def _single_states(a, input_bits):
    """The state after every step on one input, one step at a time.

    The reference of :func:`run` and :func:`trace`: a query multiplies the
    complex state by a ±1 vector built for that step, and a unitary step is
    a vector-matrix product.
    """
    states = [a.initial]
    for step in a.steps:
        if isinstance(step, QueryGate):
            signs = np.ones(a.amplitudes)
            for j, v in enumerate(step.assignments):
                if v is not None and input_bits[v] == "1":
                    signs[j] = -1.0
            states.append(states[-1] * signs)
        else:
            states.append(states[-1] @ step)
    return states


class TestSingleInput:
    @pytest.mark.parametrize("shape", [*CATALOG_SHAPES, "complex-phase"])
    def test_run_and_trace_equal_the_per_input_loop(self, shape, full_catalog, eq3):
        if shape == "complex-phase":
            a = _with_phase_gate(eq3)
        else:
            a = _entry_of_shape(full_catalog, shape)
        rng = random.Random(0)
        inputs = (
            list(all_inputs(a.arity)) if a.arity <= 6
            else [bit_string(rng.randrange(1 << a.arity), a.arity) for _ in range(20)]
        )
        for x in inputs:
            reference = _single_states(a, x)
            final, _ = run(a, x)
            traced = trace(a, x).states
            assert len(traced) == len(reference)
            for state, expected in zip((final, *traced), (reference[-1], *reference)):
                assert state.dtype == expected.dtype == complex
                assert state.tobytes() == expected.tobytes()  # signed zeros count

    @given(data=st.data())
    def test_run_equals_its_run_all_row(self, full_catalog, data):
        algorithms = [e.algorithm for s in full_catalog.values() for e in s.entries]
        a = data.draw(st.sampled_from(algorithms))
        row = data.draw(st.integers(0, (1 << a.arity) - 1))
        final, probs = run(a, bit_string(row, a.arity))
        assert np.allclose(final, run_all(a)[row], rtol=0, atol=1e-12)
        assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-9)


class TestRunAll:
    @pytest.mark.parametrize("shape", [*CATALOG_SHAPES, "complex-phase"])
    def test_matches_single_runs(self, shape, full_catalog, eq3):
        if shape == "complex-phase":
            a = _with_phase_gate(eq3)
        else:
            a = _entry_of_shape(full_catalog, shape)
        table = run_all(a)
        assert table.dtype == (complex if shape == "complex-phase" else np.float64)
        singles = np.array([run(a, x)[0] for x in all_inputs(a.arity)])
        assert np.allclose(table, singles, rtol=0, atol=1e-12)

    def test_probabilities_sum_to_one(self, eq3):
        states = run_all(eq3)
        assert np.allclose(np.sum(np.abs(states) ** 2, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("scale", [1.5, np.nan])
    def test_norm_guard_names_the_first_drifting_input(self, pe4, f_pe4, monkeypatch, scale):
        states = run_all(pe4)
        states[5] *= scale
        states[9] *= 2.0  # drifts further, but on a later input
        monkeypatch.setattr(simulator, "_final_states", lambda a: (states, None))
        for ask in (run_all, lambda a: verify(a, f_pe4), computed_function):
            with pytest.raises(RuntimeError, match="state norm drifted to .* on input '0101'"):
                ask(replace(pe4))  # a copy, so no answers are kept on it yet


def _rebuilt(a):
    """The same algorithm, built again from its fields."""
    return QQA(a.arity, a.amplitudes, a.initial, a.steps, a.measurement)


def _dense_states(a):
    """Final states on every input from one batch over all 2^n rows and every step.

    The reference of the block path: a query step multiplies by a ±1 sign
    table, a unitary step is one matmul of the whole batch, in float64 when
    nothing is complex.
    """
    n = a.arity
    gates = [step for step in a.steps if not isinstance(step, QueryGate)]
    real = not (a.initial.imag.any() or any(g.imag.any() for g in gates))
    signs = np.ones((2,) * n + (n + 1,))
    for k in range(n):
        signs[(slice(None),) * k + (1, ..., k)] = -1.0
    signs = signs.reshape(1 << n, n + 1)
    states = np.tile(a.initial.real if real else a.initial, (1 << n, 1))
    for step in a.steps:
        if isinstance(step, QueryGate):
            states = states * signs[:, [n if v is None else v for v in step.assignments]]
        else:
            states = states @ (np.ascontiguousarray(step.real) if real else step)
    return states


def _assert_bit_identical(a):
    states, reference = run_all(a), _dense_states(a)
    assert states.dtype == reference.dtype
    assert np.array_equal(states, reference)


def _assert_answers_bit_identical(a, f):
    """``verify(a, f)`` and the answers of ``a`` are the dense pass's, bit for bit."""
    dense = _dense_states(a)
    p_one = (np.abs(dense[:, np.array(a.measurement) == 1]) ** 2).sum(axis=1)
    target = np.frombuffer(f.bits, dtype=np.uint8)
    expected = np.where(target == 1, p_one, 1.0 - p_one)
    report = verify(a, f)
    assert report.success.tobytes() == expected.tobytes()
    assert report.worst_case_p == expected.min()
    worst_at = int(np.flatnonzero(expected == expected.min())[0])
    assert report.witness == bit_string(worst_at, a.arity)
    assert simulator._answers(replace(a)) == _reference_answers(a, dense, p_one)


def _block_variables(a):
    """The variables each independent block of ``a`` reads, in block order."""
    _, reads, _ = simulator._blocks(a)
    return [list(variables) for variables in reads]


class TestComposedPath:
    """Combiner-built algorithms, simulated from their fields like any other."""

    @pytest.fixture(scope="class")
    def composites(self, full_catalog):
        return [e.algorithm for name in SET_NAMES[2:] for e in full_catalog[name].entries]

    def test_every_constructed_entry_is_composed(self, composites):
        # The parts' blocks are visible in the gates of every composite.
        assert len(composites) == 592
        assert all(simulator._blocks(a) is not None for a in composites)

    def test_matches_dense_kernel(self, composites):
        for a in composites:
            states, dense = run_all(a), _dense_states(a)
            assert states.dtype == dense.dtype == np.float64
            assert states.shape == dense.shape
            assert np.array_equal(states, dense)

    def test_complex_part_gives_complex_states(self, eq3):
        phase = np.diag(np.exp(1j * np.array([0.0, 0.4, 1.1, 2.0])))  # keeps output 0 real
        part = QQA(eq3.arity, 4, eq3.initial, eq3.steps + (phase,), eq3.measurement)
        result = and_construct(part, eq3)
        states, dense = run_all(result.algorithm), _dense_states(result.algorithm)
        assert states.dtype == dense.dtype == complex
        assert np.array_equal(states, dense)

    def test_derived_algorithms_drop_the_composition(self, full_catalog, tmp_path):
        a = full_catalog["maj_even4"].entries[-1].algorithm
        states = run_all(a)
        flipped = replace(a, measurement=tuple(1 - v for v in a.measurement))
        save(a, tmp_path / "a.json")
        sigma = list(reversed(range(a.arity)))
        permuted = permute_variables(a, sigma)
        # The permuted algorithm on y behaves as the original on y[sigma[0]], y[sigma[1]], ...
        rows = [int("".join(y[v] for v in sigma), 2) for y in all_inputs(a.arity)]
        for derived, expected in (
            (flipped, states),
            (load(tmp_path / "a.json"), states),
            (permuted, states[rows]),
        ):
            assert np.array_equal(run_all(derived), expected)

    def test_sign_normalised_composite_drops_the_composition(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])  # accepting amplitude in {0, -1}
        normalised = normalize_accepting_sign(moved)
        expected = run_all(moved).copy()
        expected[:, 3] *= -1
        assert np.array_equal(run_all(normalised), expected)

    def test_shared_part_is_simulated_once(self, eq3, monkeypatch):
        composites = [and_construct(eq3, eq3), majority_even4_construct(eq3, eq3, eq3, eq3)]
        simulated = []
        kernel = simulator._final_states
        monkeypatch.setattr(simulator, "_final_states", lambda a: simulated.append(a) or kernel(a))
        for result in composites:
            run_all(result.algorithm)
        # One simulation per composite, none per part.
        assert simulated == [composites[0].algorithm, composites[1].algorithm]

    def test_one_simulation_per_verify(self, eq3, monkeypatch):
        result = majority_even4_construct(eq3, eq3, eq3, eq3)
        simulated = []
        simulate = simulator._simulate
        monkeypatch.setattr(simulator, "_simulate", lambda a: simulated.append(a) or simulate(a))
        assert verify(result.algorithm, result.target).worst_case_p == pytest.approx(9 / 16)
        assert simulated == [result.algorithm]

    def test_verify_and_answers_match_dense_kernel(self, full_catalog):
        for name in SET_NAMES[2:]:
            for e in full_catalog[name].entries:
                _assert_answers_bit_identical(e.algorithm, e.function)

    def test_verify_holds_no_state_per_input(self, full_catalog):
        # One (4096, 16) float64 array, as every input's state, is 512 KB.
        e = full_catalog["maj_even4"].entries[-1]
        verify(e.algorithm, e.function)  # fills the tables kept between calls
        tracemalloc.start()
        try:
            verify(e.algorithm, e.function)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def _rotation(theta):
    return np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])


class TestTiles:
    """Batches whose rows run in more than one tile of ``simulator._TILE``."""

    def test_short_last_tile_of_the_block_prefix(self):
        # Amplitudes 0-1 read variables 0-9 and amplitudes 2-3 read 10-12: the
        # stacked prefix has 1024 + 8 rows, so its last tile holds 8.
        queries = [
            (0, 1, 10, 11), (2, 3, 12, None), (4, 5, None, 10), (6, 7, 11, 12), (8, 9, None, None)
        ]
        steps = []
        for k, assignments in enumerate(queries):
            steps += [block_diag([_rotation(0.3 + k), _rotation(1.1 - k)]), QueryGate(assignments)]
        steps.append(np.kron(_rotation(0.7), _rotation(0.2)))  # mixes the blocks
        a = QQA(13, 4, [0.6, 0, 0.8, 0], steps, (1, 0, 0, 0))
        assert _block_variables(a) == [list(range(10)), [10, 11, 12]]
        assert simulator._blocks(a)[2] == len(steps) - 1  # only the last gate mixes the blocks
        assert (1024 + 8) % simulator._TILE == 8
        _assert_bit_identical(a)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_dense_batch_of_several_tiles(self, kind):
        rng = np.random.default_rng(3)
        steps = []
        for k in range(5):
            steps.append(np.linalg.qr(rng.standard_normal((8, 8)))[0])
            steps.append(QueryGate(tuple((2 * k + j) % 10 if j < 7 else None for j in range(8))))
        steps.append(np.linalg.qr(rng.standard_normal((8, 8)))[0])
        a = QQA(10, 8, np.full(8, 8 ** -0.5), steps, (1, 1, 0, 0, 0, 0, 0, 0))
        if kind == "complex":
            a = _with_phase_gate(a)
        assert 1 << a.arity == 2 * simulator._TILE < simulator._BLOCK_ROWS
        _assert_bit_identical(a)


class TestBlockPath:
    """Algorithms simulated from the independent blocks in their gates."""

    @pytest.fixture(scope="class")
    def majority(self, full_catalog):
        return full_catalog["maj_even4"].entries[-1].algorithm

    def test_rebuilt_composite_splits_into_its_parts(self, majority):
        a = _rebuilt(majority)
        masks, reads, prefix = simulator._blocks(a)
        assert _block_variables(a) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        assert [list(np.flatnonzero(amplitudes)) for amplitudes in masks] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]
        ]
        assert prefix == len(a.steps) - 2  # only the two mixing gates mix the blocks
        _assert_bit_identical(a)

    def test_derived_composites_decompose(self, majority, tmp_path):
        save(majority, tmp_path / "a.json")
        flipped = tuple(1 - v for v in majority.measurement)
        sign = np.diag([-1.0] + [1.0] * (majority.amplitudes - 1))
        sigma = [int(v) for v in np.random.default_rng(5).permutation(majority.arity)]
        for derived in (
            majority,
            _rebuilt(majority),
            load(tmp_path / "a.json"),
            replace(majority),
            replace(majority, measurement=flipped),
            replace(majority, steps=majority.steps + (sign,)),
            permute_variables(majority, list(reversed(range(majority.arity)))),
            permute_variables(majority, sigma),
        ):
            assert simulator._blocks(derived) is not None
            _assert_bit_identical(derived)

    def test_composite_of_sign_normalised_parts(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])  # accepting amplitude in {0, -1}
        a = majority_even4_construct(moved, moved, eq3, moved).algorithm
        masks, _, prefix = simulator._blocks(a)
        assert len(masks) == 4 and prefix == len(a.steps) - 2  # sign gates stay in the prefix
        _assert_bit_identical(a)

    def test_filler_block_reads_no_variables(self, eq3):
        a = majority3_construct(eq3, eq3, eq3).algorithm
        assert _block_variables(a) == [[], [0, 1, 2], [3, 4, 5], [6, 7, 8]]
        _assert_bit_identical(a)

    @pytest.mark.parametrize("slot", [0, 3])
    def test_unread_variable_is_broadcast(self, eq3, slot):
        padded = QQA(4, 4, eq3.initial, eq3.steps, eq3.measurement)  # reads 3 of 4 variables
        parts = [eq3] * 4
        parts[slot] = padded
        result = majority_even4_construct(*parts)
        unread = 3 if slot == 0 else 12
        assert unread not in sum(_block_variables(result.algorithm), [])
        _assert_bit_identical(result.algorithm)
        _assert_answers_bit_identical(result.algorithm, result.target)

    def test_complex_part_gives_complex_states(self, eq3):
        phase = np.diag(np.exp(1j * np.array([0.0, 0.4, 1.1, 2.0])))  # keeps output 0 real
        part = QQA(eq3.arity, 4, eq3.initial, eq3.steps + (phase,), eq3.measurement)
        a = majority_even4_construct(eq3, part, eq3, eq3).algorithm
        assert simulator._blocks(a) is not None
        assert run_all(a).dtype == complex
        _assert_bit_identical(a)

    def test_shared_variable_falls_back(self, majority):
        first = next(k for k, step in enumerate(majority.steps) if isinstance(step, QueryGate))
        assignments = list(majority.steps[first].assignments)
        j = next(j for j in range(4, 8) if assignments[j] is not None)
        assignments[j] = 0  # the second block now reads a variable of the first
        steps = majority.steps[:first] + (QueryGate(tuple(assignments)),) + majority.steps[first + 1:]
        shared = replace(majority, steps=steps)
        assert simulator._blocks(shared) is None
        _assert_bit_identical(shared)

    def test_tiny_coupling_falls_back(self, majority):
        first = next(k for k, step in enumerate(majority.steps) if not isinstance(step, QueryGate))
        gate = majority.steps[first].copy()
        for block in range(3):  # chains all four blocks into one
            gate[4 * block, 4 * block + 4] = 1e-300
        coupled = replace(majority, steps=majority.steps[:first] + (gate,) + majority.steps[first + 1:])
        assert simulator._blocks(coupled) is None
        _assert_bit_identical(coupled)

    def test_single_live_block_falls_back(self, majority):
        initial = np.zeros(majority.amplitudes)
        initial[0] = 1.0  # the other blocks hold no amplitude
        single = replace(majority, initial=initial)
        assert simulator._blocks(single) is None
        _assert_bit_identical(single)

    def test_no_query_has_no_blocks(self):
        a = constant_one_algorithm(num_amplitudes=3, arity=2, queries=0)
        assert simulator._blocks(a) is None
        assert run_all(a).tolist() == [[1.0, 0.0, 0.0]] * 4
        _assert_bit_identical(a)

    def test_norm_guard_names_the_first_input_of_a_drifting_state(self, majority, monkeypatch):
        states, index = simulator._final_states(majority)
        assert len(states) == 4 ** 4  # each block's 8 rows hold 4 distinct states
        # Input 101011110001 ends in the same state as 010011001001, and as no input before it.
        dense = _dense_states(majority)
        state = dense[0b101011110001].tobytes()
        same = [i for i in range(len(dense)) if dense[i].tobytes() == state]
        assert same[0] == 0b010011001001 < same[1]
        row = int(index[0b101011110001])
        states = states.copy()
        states[row] *= 1.5
        monkeypatch.setattr(simulator, "_final_states", lambda a: (states, index))
        f = TruthTable(majority.arity, bytes(1 << majority.arity))
        for ask in (run_all, lambda a: verify(a, f), computed_function):
            with pytest.raises(RuntimeError, match="norm drifted to .* on input '010011001001'"):
                ask(replace(majority))

    def test_small_batch_is_not_searched(self, full_catalog, monkeypatch):
        searched = []
        find = simulator._blocks
        monkeypatch.setattr(simulator, "_blocks", lambda a: searched.append(a) or find(a))
        small = [
            _entry_of_shape(full_catalog, "m16n8"),  # 256 rows, 256 gate entries
            _entry_of_shape(full_catalog, "m13n9"),  # 512 rows, cheaper in one pass
        ]
        large = _entry_of_shape(full_catalog, "m16n12")
        for a in small:
            assert find(a) is not None
            _assert_bit_identical(a)
        _assert_bit_identical(large)
        assert searched == [large]

    def test_verify_equals_reference_on_a_stream(self, full_catalog):
        # The shape mix of the benchmark's verify stream, drawn from the catalog.
        mix = {"m8n6": 8, "m16n6": 8, "m16n7": 24, "m16n8": 40, "m13n9": 16, "m16n12": 240}
        rng = random.Random(0)
        entries = [e for name in SET_NAMES[2:] for e in full_catalog[name].entries]
        stream = []
        for shape, count in mix.items():
            matching = [
                e for e in entries if f"m{e.algorithm.amplitudes}n{e.algorithm.arity}" == shape
            ]
            stream += rng.sample(matching, count)
        assert len(stream) == 336
        for e in stream:
            a = _rebuilt(e.algorithm)
            states = _dense_states(a)
            p_one = (np.abs(states[:, np.array(a.measurement) == 1]) ** 2).sum(axis=1)
            target = np.frombuffer(e.function.bits, dtype=np.uint8)
            expected = np.where(target == 1, p_one, 1.0 - p_one)
            assert np.array_equal(verify(a, e.function).success, expected)


#: Each combiner, the number of parts it takes and the pool it draws them from.
_COMBINERS = {
    "and": (and_construct, 2, "mixing"),
    "or": (or_construct, 2, "routing"),
    "maj_even4": (majority_even4_construct, 4, "mixing"),
    "majority3": (majority3_construct, 3, "mixing"),
}


@pytest.fixture(scope="module")
def pools(full_catalog):
    """The exact catalog algorithms each combiner accepts, as the catalog chooses them."""
    exact = [e.algorithm for name in ("qfunc3", "qfunc4") for e in full_catalog[name].entries]
    signed = (StructuralProperty.ACCEPT_PLUS_ONE, StructuralProperty.ACCEPT_MINUS_ONE)
    return {
        "mixing": [a for a in exact if any(check_property(a, which) for which in signed)],
        "routing": [
            a for a in exact if check_property(a, StructuralProperty.ACCEPT_SIGNED_UNIT)
        ],
    }


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("composites") / "a.json"


class TestBlockPathProperty:
    """Composites of random parts, changed at random, against the plain dense pass."""

    @pytest.mark.parametrize("rows", [simulator._BLOCK_ROWS, 1], ids=["default", "every-batch"])
    @given(data=st.data())
    def test_states_equal_the_dense_pass(self, pools, document_path, rows, data):
        combine, count, pool = _COMBINERS[data.draw(st.sampled_from(sorted(_COMBINERS)))]
        result = combine(*(data.draw(st.sampled_from(pools[pool])) for _ in range(count)))
        a = result.algorithm
        change = data.draw(st.sampled_from(["none", "permute", "invert", "reload"]))
        if change == "permute":
            a = permute_variables(a, data.draw(st.permutations(range(a.arity))))
        elif change == "invert":  # what invert_outputs does, which takes exact algorithms only
            a = replace(a, measurement=tuple(1 - v for v in a.measurement))
        elif change == "reload":
            save(a, document_path)
            a = load(document_path)
        with mock.patch.object(simulator, "_BLOCK_ROWS", rows):
            _assert_bit_identical(a)
            _assert_answers_bit_identical(a, result.target)  # any table of the arity serves


class TestVerify:
    def test_exact_match(self, eq3, f_eq3):
        report = verify(eq3, f_eq3)
        assert report.exact
        assert report.worst_case_p == pytest.approx(1.0, abs=1e-9)
        assert report.queries == 2
        assert set(report.per_input) == set(all_inputs(3))

    def test_against_complement_never_succeeds(self, eq3, f_eq3):
        report = verify(eq3, f_eq3.complement())
        assert not report.exact
        assert report.worst_case_p == pytest.approx(0.0, abs=1e-9)

    def test_arity_mismatch(self, eq3, f_pe4):
        with pytest.raises(ValueError, match="arity mismatch"):
            verify(eq3, f_pe4)

    def test_witness_is_the_first_worst_input(self, pe4, f_pe4):
        bits = bytearray(f_pe4.bits)
        bits[5] ^= 1
        bits[9] ^= 1
        report = verify(pe4, TruthTable(4, bytes(bits)))
        assert report.witness == "0101"
        assert report.worst_case_p == pytest.approx(0.0, abs=1e-9)
        assert type(report.per_input) is dict
        assert report.per_input["0101"] == report.worst_case_p
        assert report.per_input["0000"] == pytest.approx(1.0, abs=1e-9)

    def test_per_input_equals_the_per_row_dict(self, full_catalog):
        for name in ("qfunc3", "and", "majority3"):
            entry = full_catalog[name].entries[-1]
            report = verify(entry.algorithm, entry.function)
            expected = {bit_string(i, entry.function.arity): float(p)
                        for i, p in enumerate(report.success)}
            assert list(report.per_input.items()) == list(expected.items())
            assert all(type(p) is float for p in report.per_input.values())


def _reference_answers(a, states, p_one):
    """The answers of one simulation, each from its own direct formula."""
    margins = np.abs(p_one - 0.5)
    closest = int(margins.argmin())
    bits = (p_one > 0.5).astype(np.uint8)
    peaks = (np.abs(states) ** 2).max(axis=1)
    allowed = {
        StructuralProperty.ACCEPT_PLUS_ONE: (0.0, 1.0),
        StructuralProperty.ACCEPT_MINUS_ONE: (0.0, -1.0),
        StructuralProperty.ACCEPT_SIGNED_UNIT: (0.0, 1.0, -1.0),
    }
    success = np.where(bits == 1, p_one, 1.0 - p_one)
    spread = {}
    accepting = a.accepting_outputs()
    if len(accepting) == 1:
        column = states[:, accepting[0]]
        for which, values in allowed.items():
            distance = np.min([np.abs(column - v) for v in values], axis=0)
            largest = float(distance.max())
            spread[which] = (largest, int(np.flatnonzero(distance == largest)[0]))
    return simulator._Answers(
        bits=bits.tobytes(),
        margin=(float(margins[closest]), closest),
        agreement=(float(success.min()), int(np.flatnonzero(success == success.min())[0])),
        peak=(float(peaks.min()), int(np.flatnonzero(peaks == peaks.min())[0])),
        spread=spread,
    )


class TestOneSimulationPerAlgorithm:
    def test_questions_share_one_simulation(self, eq3, monkeypatch):
        simulated = []
        simulate = simulator._simulate
        monkeypatch.setattr(simulator, "_simulate", lambda a: simulated.append(a) or simulate(a))
        computed_function(eq3)
        for which in StructuralProperty:
            check_property(eq3, which)
        invert_outputs(eq3)
        assert simulated == [eq3]

    def test_verify_simulates_on_every_call(self, eq3, f_eq3, monkeypatch):
        simulated = []
        simulate = simulator._simulate
        monkeypatch.setattr(simulator, "_simulate", lambda a: simulated.append(a) or simulate(a))
        verify(eq3, f_eq3)
        verify(eq3, f_eq3)
        assert eq3._memo is None  # verify keeps no answers
        assert simulated == [eq3, eq3]
        assert computed_function(eq3) == f_eq3
        assert simulated == [eq3, eq3, eq3]
        for which in StructuralProperty:
            check_property(eq3, which)
        assert is_exact(eq3)
        verify(eq3, f_eq3)
        assert simulated == [eq3, eq3, eq3, eq3]

    def test_answers_hold_for_any_tolerance(self):
        # P(1) = 0.5 + 1e-6 on both inputs, and the single accepting amplitude is sqrt of it.
        p = 0.5 + 1e-6
        a = QQA(1, 2, [np.sqrt(p), np.sqrt(1 - p)], (), (1, 0))
        assert computed_function(a, tol=1e-7).bits == b"\x01\x01"
        with pytest.raises(ValueError, match="on input 0"):
            computed_function(a, tol=1e-5)
        assert not is_exact(a)
        assert is_exact(a, tol=np.nextafter(0.5, 0.0))  # the largest tolerance there is
        assert not check_property(a, StructuralProperty.CERTAIN_OUTCOME)
        assert check_property(a, StructuralProperty.CERTAIN_OUTCOME, tol=np.nextafter(0.5, 0.0))
        assert check_property(a, StructuralProperty.ACCEPT_PLUS_ONE, tol=0.3)
        assert not check_property(a, StructuralProperty.ACCEPT_PLUS_ONE, tol=0.2)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("ask", _TOL_ASKS, ids=_TOL_ASK_IDS)
    def test_tolerance_must_be_positive(self, ask, tol):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        a = QQA(1, 2, [1, 0], (h,), (0, 1))  # P(1) = 1/2 on every input
        with pytest.raises(ValueError, match="on input 0"):
            computed_function(a)  # no table, where a NaN or negative tol once gave one
        with pytest.raises(ValueError, match="^tol must be positive$"):
            ask(a, tol)

    @pytest.mark.parametrize("ask", _TOL_ASKS, ids=_TOL_ASK_IDS)
    def test_tolerance_must_be_below_one_half(self, ask):
        """At 1/2 every bounded-error worst case would count as exact."""
        for tol in (0.5, 2.0, np.inf):
            with pytest.raises(ValueError, match="^tol must be below 1/2 for a probability, got "):
                ask(QQA(1, 2, [0, 1], (), (0, 1)), tol)
        ask(QQA(1, 2, [0, 1], (), (0, 1)), np.nextafter(0.5, 0.0))  # P(1) = 1: no refusal

    @pytest.mark.parametrize("shape", [*CATALOG_SHAPES, "complex-phase"])
    def test_answers_equal_direct_formulas(self, shape, full_catalog, eq3):
        if shape == "complex-phase":
            a = _with_phase_gate(eq3)
        else:
            a = _entry_of_shape(full_catalog, shape)
        states = run_all(a)
        assert simulator._answers(a) == _reference_answers(a, states, simulator._p_one(a, states))

    def test_replaced_algorithm_does_not_inherit_answers(self, eq3, f_eq3):
        assert computed_function(eq3) == f_eq3
        assert check_property(eq3, StructuralProperty.ACCEPT_PLUS_ONE)
        flipped = replace(eq3, measurement=tuple(1 - v for v in eq3.measurement))
        assert computed_function(flipped) == f_eq3.complement()
        assert not check_property(flipped, StructuralProperty.ACCEPT_PLUS_ONE)


class TestComputedFunction:
    def test_recovers_equality(self, eq3, f_eq3):
        assert computed_function(eq3) == f_eq3

    def test_round_trips_through_verify(self, pe4):
        assert verify(pe4, computed_function(pe4)).exact

    def test_tie_is_an_error(self):
        initial = np.array([2**-0.5, 2**-0.5])
        a = QQA(1, 2, initial, (), (1, 0))
        with pytest.raises(ValueError, match="probability above 1/2"):
            computed_function(a)


class TestCheckProperty:
    def test_equality3_disciplines(self, eq3):
        assert check_property(eq3, StructuralProperty.CERTAIN_OUTCOME)
        assert check_property(eq3, StructuralProperty.ACCEPT_PLUS_ONE)
        assert check_property(eq3, StructuralProperty.ACCEPT_SIGNED_UNIT)

    def test_pair_equality4_disciplines(self, pe4):
        assert check_property(pe4, StructuralProperty.CERTAIN_OUTCOME)
        assert check_property(pe4, StructuralProperty.ACCEPT_SIGNED_UNIT)
        assert not check_property(pe4, StructuralProperty.ACCEPT_PLUS_ONE)
        assert not check_property(pe4, StructuralProperty.ACCEPT_MINUS_ONE)

    def test_negative_accepting_variant(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])  # accepting value moved to output 4
        assert check_property(moved, StructuralProperty.ACCEPT_MINUS_ONE)
        assert not check_property(moved, StructuralProperty.ACCEPT_PLUS_ONE)

    def test_multiple_accepting_outputs_fail_accept_properties(self, eq3):
        from dataclasses import replace

        doubled = replace(eq3, measurement=(1, 1, 0, 0))
        assert not check_property(doubled, StructuralProperty.ACCEPT_PLUS_ONE)
        assert not check_property(doubled, StructuralProperty.ACCEPT_SIGNED_UNIT)
        assert check_property(doubled, StructuralProperty.CERTAIN_OUTCOME)

    def test_certain_outcome_implies_unit_peak(self, eq3, pe4):
        for a in (eq3, pe4):
            assert check_property(a, StructuralProperty.CERTAIN_OUTCOME)
            probs = np.abs(run_all(a)) ** 2
            assert np.all(probs.max(axis=1) >= 1.0 - 1e-9)

    def test_unknown_property_is_an_error(self, eq3):
        with pytest.raises(ValueError, match="^unknown property 'accepting-in-zero-plus-one'$"):
            check_property(eq3, StructuralProperty.ACCEPT_PLUS_ONE.value)


def _ties(a, tol):
    """Whether :func:`computed_function` finds no outcome above 1/2 on input 0."""
    try:
        computed_function(a, tol)
    except ValueError as error:
        return str(error) == "no outcome has probability above 1/2 on input 0"
    return False


#: A 1-variable, 8-amplitude algorithm that stays in (3, 2, 1, 1, 1, 0, 0, 0)/4, a unit
#: vector in exact floats, and accepts on its amplitude 1/4: its largest probability is
#: 9/16, so every bound of :func:`check_property` sits below the tolerance limit of 1/2.
_SKEWED = QQA(1, 8, np.array([3, 2, 1, 1, 1, 0, 0, 0]) / 4, (QueryGate((None,) * 8),),
              (0, 0, 0, 0, 1, 0, 0, 0))

#: Per question: the outputs of a ``quarters`` algorithm (or the algorithm itself), the
#: question, and the tolerance at which its answer is exactly on the bound.
_AT_THE_BOUND = {
    "verify exact": (
        (1, 1, 1, 0), lambda a, tol: verify(a, TruthTable(1, b"\x01\x01"), tol).exact, 0.25),
    "is_exact": ((1, 1, 1, 0), is_exact, 0.25),
    "computed_function tie": ((1, 1, 1, 0), _ties, 0.25),
    "certain outcome": (
        _SKEWED, lambda a, tol: check_property(a, StructuralProperty.CERTAIN_OUTCOME, tol), 0.4375),
    "accept plus one": (
        _SKEWED, lambda a, tol: check_property(a, StructuralProperty.ACCEPT_PLUS_ONE, tol), 0.25),
    "accept minus one": (
        _SKEWED, lambda a, tol: check_property(a, StructuralProperty.ACCEPT_MINUS_ONE, tol), 0.25),
    "accept signed unit": (  # the accepting amplitude is within 1/4, the peak only at 7/16
        _SKEWED, lambda a, tol: check_property(a, StructuralProperty.ACCEPT_SIGNED_UNIT, tol),
        0.4375),
}


class TestToleranceBounds:
    """A value exactly ``tol`` from its bound passes; one float less of ``tol`` does not."""

    @pytest.mark.parametrize("case", sorted(_AT_THE_BOUND))
    def test_a_value_on_its_bound_passes(self, quarters, case):
        measurement, holds, tol = _AT_THE_BOUND[case]
        a = measurement if isinstance(measurement, QQA) else quarters(measurement)
        assert holds(a, tol) is True
        assert holds(a, np.nextafter(tol, 0.0)) is False

    def test_norm_bounds_are_inclusive(self, quarters, monkeypatch):
        monkeypatch.setattr(simulator, "NORM_TOL", 0.25)
        a = quarters((1, 1, 1, 0), initial=(1, 0.5, 0, 0))  # norm 1.25, and so every state
        assert np.array_equal(run_all(a), [[0.75, 0.25, 0.75, 0.25]] * 2)
        monkeypatch.setattr(simulator, "NORM_TOL", np.nextafter(0.25, 0.0))
        with pytest.raises(ValueError, match=r"^initial: state is not unit-norm \(norm 1.25\)$"):
            quarters((1, 1, 1, 0), initial=(1, 0.5, 0, 0))
        with pytest.raises(RuntimeError, match="^state norm drifted to 1.25 on input '0'$"):
            run_all(a)

    def test_norm_guard_names_the_first_input_beyond_its_bound(self, monkeypatch):
        # A gate 0.5 from unitary; input 0 ends 0.12109375 from norm 1, input 1 further.
        monkeypatch.setattr(simulator, "UNITARY_TOL", 0.5)
        monkeypatch.setattr(simulator, "NORM_TOL", 0.12109375)
        a = QQA(1, 2, [1, 0.25], (QueryGate((0, None)), [[1, -0.25], [-0.25, 1]]), (1, 0))
        with pytest.raises(RuntimeError, match="^state norm drifted to 1.37890625 on input '1'$"):
            run_all(a)
        monkeypatch.setattr(simulator, "UNITARY_TOL", np.nextafter(0.5, 0.0))
        with pytest.raises(ValueError, match="^steps\\[1\\].unitary: matrix is not unitary"):
            QQA(1, 2, [1, 0.25], (QueryGate((0, None)), [[1, -0.25], [-0.25, 1]]), (1, 0))


class TestQueryCount:
    def test_counts_only_queries(self, eq3):
        assert eq3.query_count == 2

    def test_invariant_under_unitary_insertion(self, eq3, f_eq3):
        for position in range(len(eq3.steps) + 1):
            steps = eq3.steps[:position] + (np.eye(4),) + eq3.steps[position:]
            padded = QQA(eq3.arity, eq3.amplitudes, eq3.initial, steps, eq3.measurement)
            assert padded.query_count == 2
            assert verify(padded, f_eq3).exact


def _with_imaginary_zeros(a, imag=-0.0):
    """``a`` with every gate complex, each imaginary part ``imag``."""
    steps = []
    for step in a.steps:
        if not isinstance(step, QueryGate):
            step = step.astype(complex)
            step.imag = imag
        steps.append(step)
    return QQA(a.arity, a.amplitudes, a.initial, tuple(steps), a.measurement)


class TestGateStorage:
    """A stack is float64 unless a gate has an imaginary part other than +0.0, bit for bit."""

    def test_catalog_gates_are_float64(self, full_catalog):
        algorithms = [e.algorithm for s in full_catalog.values() for e in s.entries]
        stacks = {id(a._gates): a._gates for a in algorithms}
        assert {stack.dtype for stack in stacks.values()} == {np.dtype(np.float64)}
        assert len(stacks) == 594
        assert sum(stack.nbytes for stack in stacks.values()) == 6_282_432  # 12,564,864 as complex

    def test_plus_zero_imaginary_parts_are_dropped(self, eq3):
        a = _with_imaginary_zeros(eq3, imag=0.0)
        assert a._gates.dtype == np.float64
        assert a._gates.tobytes() == eq3._gates.tobytes()

    @pytest.mark.parametrize("which", ["complex phase", "-0.0 in a document"])
    def test_kept_complex(self, eq3, tmp_path, which):
        if which == "complex phase":
            a = _with_phase_gate(eq3)
        else:
            save(_with_imaginary_zeros(eq3), tmp_path / "a.json")
            a = load(tmp_path / "a.json")
            assert np.signbit(a._gates.imag).all()
        assert a._gates.dtype == complex
        assert all(step.base is a._gates for step in a.steps if not isinstance(step, QueryGate))

    @pytest.mark.parametrize("imag", [np.nan, np.inf, -np.inf])
    def test_non_finite_imaginary_part_is_checked(self, imag):
        # The real part alone is the identity, which is unitary.
        gate = np.eye(2, dtype=complex)
        gate[0, 1] = complex(0.0, imag)
        with pytest.raises(ValueError, match=r"^steps\[1\]\.unitary: matrix is not unitary"):
            with np.errstate(invalid="ignore"):
                QQA(1, 2, [1, 0], (np.eye(2), gate), (1, 0))

    @pytest.mark.parametrize("build", ["built-in", "block path"])
    def test_negative_zero_imaginary_parts_simulate_in_float64(self, eq3, build):
        part = _with_imaginary_zeros(eq3)
        if build == "built-in":
            a, real = part, eq3
        else:  # the combined stack keeps the part's -0.0 parts
            a = majority_even4_construct(eq3, part, eq3, eq3).algorithm
            real = majority_even4_construct(eq3, eq3, eq3, eq3).algorithm
            assert simulator._blocks(a) is not None
        assert a._gates.dtype == complex
        states = run_all(a)
        assert states.dtype == np.float64
        _assert_bit_identical(a)
        assert states.tobytes() == run_all(real).tobytes()

    def test_float64_gates_are_simulated_as_stored(self, eq3, monkeypatch):
        seen = []
        evolve = simulator._evolve_rows

        def recording(states, signs, steps):
            seen.extend(steps)
            return evolve(states, signs, steps)

        monkeypatch.setattr(simulator, "_evolve_rows", recording)
        run_all(eq3)
        gates = [step for step in seen if not isinstance(step, QueryGate)]
        assert len(gates) == 3 and all(gate.base is eq3._gates for gate in gates)


class TestValidation:
    def test_non_unitary_step(self):
        with pytest.raises(ValueError, match="not unitary"):
            QQA(1, 2, [1, 0], (np.array([[1, 1], [0, 1]]),), (1, 0))

    def test_non_unit_initial(self):
        with pytest.raises(ValueError, match="unit-norm"):
            QQA(1, 2, [1, 1], (), (1, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial(self, bad):
        with pytest.raises(ValueError, match="unit-norm"):
            QQA(1, 2, [bad, 0], (), (1, 0))

    @pytest.mark.parametrize(
        "initial",
        [["a", "b"], [{"x": 1}, 0], ["1", "0"], [True, False], np.array([True, False]), [True, 0]],
        ids=["strings", "dict", "numeric-strings", "booleans", "boolean-array", "boolean-and-int"],
    )
    def test_non_numeric_initial_names_the_field(self, initial):
        message = "^initial: expected 2 amplitudes, got a ragged or non-numeric array$"
        with pytest.raises(ValueError, match=message):
            QQA(1, 2, initial, (np.eye(2),), (1, 0))

    @pytest.mark.parametrize(
        "gate",
        [[["1", "0"], ["0", "1"]], np.eye(2, dtype=bool), [[True, 0], [0, 1]], [[1, 0], [0]]],
        ids=["numeric-strings", "boolean-array", "boolean-and-int", "ragged"],
    )
    def test_non_numeric_gate_names_its_step(self, gate):
        message = r"^steps\[1\]\.unitary: expected a 2x2 matrix, got a ragged or non-numeric array$"
        with pytest.raises(ValueError, match=message):
            QQA(1, 2, [1, 0], (np.eye(2), gate), (1, 0))

    def test_numpy_integer_entries_are_numbers(self):
        a = QQA(1, 2, [np.int64(1), np.uint8(0)], ([[np.int64(0), 1.0], [1, 0j]],), (1, 0))
        assert a.initial.tolist() == [1, 0] and a.steps[0].tolist() == [[0, 1], [1, 0]]
        assert computed_function(a).bits == b"\x00\x00"

    def test_arity_cap(self):
        assert QQA(MAX_ARITY, 1, [1], (), (1,)).arity == MAX_ARITY
        with pytest.raises(ValueError, match="arity"):
            QQA(MAX_ARITY + 1, 1, [1], (), (1,))

    @pytest.mark.parametrize(
        "name, value",
        [("arity", 3.0), ("arity", True), ("arity", "3"), ("amplitudes", 4.0),
         ("amplitudes", np.True_), ("amplitudes", None)],
    )
    def test_sizes_are_integers(self, eq3, name, value):
        fields = dict(arity=3, amplitudes=4, initial=eq3.initial, steps=eq3.steps,
                      measurement=eq3.measurement)
        fields[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            QQA(**fields)

    def test_numpy_integer_sizes_are_stored_as_int(self, eq3, f_eq3):
        a = QQA(np.int64(3), np.uint8(4), eq3.initial, eq3.steps, eq3.measurement)
        assert type(a.arity) is int and type(a.amplitudes) is int
        assert verify(a, f_eq3).exact

    def test_query_gate_length(self):
        with pytest.raises(ValueError, match="assignments"):
            QQA(1, 2, [1, 0], (QueryGate((0,)),), (1, 0))

    def test_query_variable_range(self):
        with pytest.raises(ValueError, match="out of range"):
            QQA(1, 2, [1, 0], (QueryGate((0, 1)),), (1, 0))

    def test_measurement_values(self):
        with pytest.raises(ValueError, match="measurement"):
            QQA(1, 2, [1, 0], (), (1, 2))

    @pytest.mark.parametrize(
        "values",
        [(0.9, 1.2), (1.0, 0), (True, False), (1, np.False_), ("1", 0), (None, 1), 5, None, 1.0],
    )
    def test_measurement_values_are_integers(self, values):
        with pytest.raises(ValueError, match="measurement"):
            QQA(1, 2, [1, 0], (), values)

    def test_amplitude_count_named(self):
        with pytest.raises(ValueError, match="^amplitudes must be positive, got 0$"):
            QQA(0, 0, [], (), ())

    def test_numpy_integers_accepted(self, tmp_path):
        a = QQA(1, 2, [1, 0], (QueryGate((np.int64(0), None)),), (np.int64(1), np.uint8(0)))
        assert a.measurement == (1, 0) and all(type(v) is int for v in a.measurement)
        assert a.steps[0].assignments == (0, None) and type(a.steps[0].assignments[0]) is int
        assert computed_function(a).bits == b"\x01\x01"
        save(a, tmp_path / "a.json")
        loaded = load(tmp_path / "a.json")
        assert loaded.steps[0].assignments == (0, None) and loaded.measurement == (1, 0)
        assert computed_function(loaded).bits == b"\x01\x01"

    def test_integer_query_gate_kept_as_it_is(self):
        gate = QueryGate((0, None))
        assert QQA(1, 2, [1, 0], (gate,), (1, 0)).steps[0] is gate

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_boolean_variable_index(self, flag):
        with pytest.raises(ValueError, match=r"^steps\[0\]\.query\[0\]: .*variable index"):
            QQA(1, 2, [1, 0], (QueryGate((flag, None)),), (1, 0))

    @pytest.mark.parametrize("bad", [-1, 2, 0.0, "0", [0]])
    def test_query_assignment_checked_by_the_algorithm(self, bad):
        gate = QueryGate([None, bad])  # a gate only stores its assignments
        assert gate.assignments == (None, bad)
        with pytest.raises(ValueError, match=r"^steps\[1\]\.query\[1\]: "):
            QQA(2, 2, [1, 0], (np.eye(2), gate), (1, 0))

    @pytest.mark.parametrize(
        "steps, changes, message",
        [
            ((np.eye(3), np.ones((2, 2))), {}, r"steps\[0\]\.unitary: expected a 2x2 matrix"),
            ((np.ones((2, 2)), np.eye(3)), {}, r"steps\[0\]\.unitary: matrix is not unitary"),
            ((np.eye(2), 2 * np.eye(2), np.ones((2, 2))), {}, r"steps\[1\]\.unitary"),
            ((np.eye(2), QueryGate((0, 3)), np.ones((2, 2))), {},
             r"steps\[1\]\.query\[1\]: variable out of range for arity 1$"),
            ((np.eye(2), np.ones((2, 2)), QueryGate((0,))), {}, r"steps\[1\]\.unitary"),
            ((np.eye(2), [[np.nan, 0], [0, 1]]), {}, r"steps\[1\]\.unitary"),
            ((np.eye(2), [[1, 0], [0]]), {}, r"^steps\[1\]\.unitary: expected a 2x2 matrix"),
            ((np.eye(2), [["1", "x"], [0, 1]]), {}, r"^steps\[1\]\.unitary: expected a 2x2"),
            ((np.eye(2), [[{}, 0], [0, 1]]), {}, r"^steps\[1\]\.unitary: expected a 2x2"),
            ((QueryGate((0,)), np.ones((2, 2))), {}, r"^steps\[0\]\.query: query gate needs 2"),
            # Faults in more than one field: the first in the order of the checks is named.
            ((np.eye(2), QueryGate((0, 3))), {"initial": [1, 1]},
             r"^initial: state is not unit-norm \(norm 2.0\)$"),
            ((np.eye(2), QueryGate((0,))), {"measurement": (1, 2)},
             r"^steps\[1\]\.query: query gate needs 2 assignments$"),
            ((np.eye(3),), {"measurement": (1, 2)},
             r"^steps\[0\]\.unitary: expected a 2x2 matrix, got \(3, 3\)$"),
            ((2 * np.eye(2), QueryGate((0, 3))), {},
             r"^steps\[0\]\.unitary: matrix is not unitary within 1e-10 "
             r"\(largest \|UU† - I\| entry 3.0\)$"),
            ((QueryGate((0, 3)), 2 * np.eye(2)), {},
             r"^steps\[0\]\.query\[1\]: variable out of range for arity 1$"),
            ((), {"arity": MAX_ARITY + 1, "amplitudes": 0},
             rf"^arity must be between 0 and {MAX_ARITY}, got {MAX_ARITY + 1}$"),
            ((), {"arity": MAX_ARITY + 1, "amplitudes": -2},
             rf"^arity must be between 0 and {MAX_ARITY}, got {MAX_ARITY + 1}$"),
        ],
    )
    def test_first_failing_step_is_named(self, steps, changes, message):
        fields = {**dict(arity=1, amplitudes=2, initial=[1, 0], measurement=(1, 0)), **changes}
        with pytest.raises(ValueError, match=message), np.errstate(invalid="ignore"):
            QQA(steps=steps, **fields)

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValueError, match="matrix"):
            QQA(1, 2, [1, 0], (np.eye(3),), (1, 0))

    def test_built_in_gates_are_real(self, eq3, pe4):
        for a in (eq3, pe4):
            for step in a.steps:
                if not isinstance(step, QueryGate):
                    assert np.all(step.imag == 0)

    def test_steps_are_frozen(self, eq3):
        with pytest.raises(ValueError):
            eq3.steps[0][0, 0] = 9.0
        with pytest.raises(ValueError):
            eq3.initial[0] = 0.0

    def test_gates_cannot_be_unfrozen(self, eq3):
        for step in eq3.steps:
            if not isinstance(step, QueryGate):
                with pytest.raises(ValueError):
                    step.setflags(write=True)
