import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qqasim import catalog, constructors, simulator
from qqasim.algorithms import constant_one_algorithm, equality3_algorithm, pair_equality4_algorithm
from qqasim.boolfun import MAX_ARITY, all_inputs, combine_disjoint, majority_compose, named_function
from qqasim.constructors import (
    and_construct,
    majority3_construct,
    majority_even4_construct,
    or_construct,
)
from qqasim.linalg import UNITARY_TOL, _unitarity_errors, block_diag, is_unitary
from qqasim.simulator import QQA, QueryGate, _assembled, run, run_all, verify
from qqasim.transforms import normalize_accepting_sign, permute_outputs

S = 1.0 / math.sqrt(2.0)


def _p_one(algorithm):
    states = run_all(algorithm)
    mask = np.array(algorithm.measurement) == 1
    return (np.abs(states[:, mask]) ** 2).sum(axis=1)


def _block_diag_steps(algs, widths, amplitudes):
    """The parallel steps of ``algs`` as :func:`block_diag` builds them, one slot at a time.

    Algorithm i gets a block of ``widths[i]`` amplitudes, and auxiliary
    amplitudes fill the rest up to ``amplitudes``; query schedules are aligned
    as the module docstring says.  The reference for every combiner's gates.
    """
    schedules = []
    for a in algs:
        segments, queries = [[]], []
        for step in a.steps:
            if isinstance(step, QueryGate):
                queries.append(step)
                segments.append([])
            else:
                segments[-1].append(step)
        schedules.append((segments, queries))
    rounds = max(len(queries) for _, queries in schedules)
    for a, (segments, queries) in zip(algs, schedules):
        while len(queries) < rounds:
            queries.append(QueryGate((None,) * a.amplitudes))
            segments.insert(len(segments) - 1, [])
    pads = [w - a.amplitudes for a, w in zip(algs, widths)]
    auxiliary = amplitudes - sum(widths)
    steps = []
    for i in range(rounds + 1):
        for j in range(max(len(segments[i]) for segments, _ in schedules)):
            blocks = []
            for a, (segments, _), pad in zip(algs, schedules, pads):
                blocks.append(segments[i][j] if j < len(segments[i]) else np.eye(a.amplitudes))
                blocks += [np.eye(pad)] if pad else []
            steps.append(block_diag(blocks + ([np.eye(auxiliary)] if auxiliary else [])))
        if i < rounds:
            assignments, shift = [], 0
            for a, (_, queries), pad in zip(algs, schedules, pads):
                assignments += [None if v is None else v + shift for v in queries[i].assignments]
                assignments += [None] * pad
                shift += a.arity
            steps.append(QueryGate(tuple(assignments) + (None,) * auxiliary))
    return steps


class TestParallelGates:
    @pytest.mark.parametrize(
        "combine, names, widths, amplitudes, tail",
        [
            (and_construct, ("eq3", "eq3"), (4, 4), 8, 1),
            (and_construct, ("eq3", "const2"), (4, 4), 8, 1),
            (or_construct, ("pe4", "eq3"), (4, 4), 16, 2),
            (majority_even4_construct, ("eq3", "const2", "eq3", "eq3"), (4, 2, 4, 4), 14, 2),
            (majority3_construct, ("eq3", "eq3", "const2"), (4, 4, 2, 1), 11, 2),
        ],
    )
    def test_gates_equal_block_diag_reference(
        self, eq3, pe4, combine, names, widths, amplitudes, tail
    ):
        inputs = {"eq3": eq3, "pe4": pe4, "const2": constant_one_algorithm(2, arity=1)}
        algs = [inputs[name] for name in names]
        algorithm = combine(*algs).algorithm
        if combine is majority3_construct:
            algs.append(constant_one_algorithm())  # the filler in the fourth slot
        expected = _block_diag_steps(algs, widths, amplitudes)
        assert algorithm.amplitudes == amplitudes
        assert len(algorithm.steps) == len(expected) + tail
        for step, reference in zip(algorithm.steps, expected):
            if isinstance(reference, QueryGate):
                assert step.assignments == reference.assignments
            else:
                assert step.dtype == reference.dtype == np.float64
                assert np.array_equal(step, reference)


class TestAndConstruct:
    def test_target_and_probability(self, eq3, f_eq3):
        result = and_construct(eq3, eq3)
        assert result.target == combine_disjoint(f_eq3, f_eq3, "and")
        assert result.guaranteed_p == 0.75
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(0.75, abs=1e-9)
        assert report.queries == 2 == result.queries

    def test_closed_form_by_true_count(self, eq3, f_eq3):
        p_one = _p_one(and_construct(eq3, eq3).algorithm)
        for i, x in enumerate(all_inputs(6)):
            b = f_eq3.evaluate(x[:3]) + f_eq3.evaluate(x[3:])
            assert p_one[i] == pytest.approx(b * b / 4.0, abs=1e-9)

    def test_half_true_final_amplitudes(self, eq3):
        # One true sub-function leaves 1/2 at each mixed accepting slot.
        algorithm = and_construct(eq3, eq3).algorithm
        final, probs = run(algorithm, "111010")  # first block true, second false
        assert final[0] == pytest.approx(0.5, abs=1e-9)
        assert abs(final[4]) == pytest.approx(0.5, abs=1e-9)
        assert probs[1] == pytest.approx(0.25, abs=1e-9)

    def test_constant_inputs_stay_exact(self):
        c = constant_one_algorithm(num_amplitudes=2, arity=1, queries=0)
        result = and_construct(c, c)
        report = verify(result.algorithm, result.target)
        assert report.exact
        assert result.target == named_function("constant1", 2)

    def test_negative_discipline_inputs_are_normalized(self, eq3):
        minus = permute_outputs(eq3, [3, 1, 2, 0])  # accepting amplitude in {0, -1}
        result = and_construct(minus, minus)
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(0.75, abs=1e-9)

    def test_rejects_mixed_sign_input(self, pe4):
        with pytest.raises(ValueError, match="accepting amplitude"):
            and_construct(pe4, pe4)

    def test_unequal_query_counts_align(self, eq3, f_eq3):
        c = constant_one_algorithm(num_amplitudes=2, arity=1, queries=0)
        result = and_construct(eq3, c)
        assert result.queries == 2
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(0.75, abs=1e-9)
        assert result.target == combine_disjoint(f_eq3, named_function("constant1", 1), "and")

    def test_every_gate_unitary(self, eq3):
        algorithm = and_construct(eq3, eq3).algorithm
        for step in algorithm.steps:
            if not isinstance(step, QueryGate):
                assert is_unitary(step, tol=1e-10)


EXPECTED_SWAP = np.eye(16)
for _i, _j in ((1, 4), (5, 8)):
    EXPECTED_SWAP[_i, _i] = EXPECTED_SWAP[_j, _j] = 0.0
    EXPECTED_SWAP[_i, _j] = EXPECTED_SWAP[_j, _i] = 1.0


class TestOrConstruct:
    def test_target_and_probability(self, pe4, f_pe4):
        result = or_construct(pe4, pe4)
        assert result.target == combine_disjoint(f_pe4, f_pe4, "or")
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(5 / 8, abs=1e-9)
        assert report.queries == 2

    def test_case_probabilities(self, pe4, f_pe4):
        p_one = _p_one(or_construct(pe4, pe4).algorithm)
        expected = {(1, 1): 1.0, (1, 0): 5 / 8, (0, 1): 5 / 8, (0, 0): 1 / 4}
        for i, x in enumerate(all_inputs(8)):
            key = (f_pe4.evaluate(x[:4]), f_pe4.evaluate(x[4:]))
            assert p_one[i] == pytest.approx(expected[key], abs=1e-9)

    def test_swap_gate_matches_reference_layout(self, pe4):
        # Both sub-algorithms accept at their first output, so the routing
        # permutation reduces to the transpositions (2,5) and (6,9), 1-based.
        algorithm = or_construct(pe4, pe4).algorithm
        swap = algorithm.steps[-2]
        assert np.array_equal(swap.real, EXPECTED_SWAP)
        assert np.all(swap.imag == 0)

    def test_mix_gate_block_structure(self, pe4):
        mix = or_construct(pe4, pe4).algorithm.steps[-1].real
        h2 = np.array([[S, S], [S, -S]])
        assert np.allclose(mix[:2, :2], h2)
        assert np.allclose(mix[2:6, 2:6], np.kron(h2, h2))
        assert np.allclose(mix[6:10, 6:10], np.kron(h2, h2))
        assert np.allclose(mix[10:, 10:], np.eye(6))

    def test_accepting_outputs(self, pe4):
        algorithm = or_construct(pe4, pe4).algorithm
        assert algorithm.accepting_outputs() == (0, 1, 2, 6)

    def test_rejecting_amplitude_pattern_before_mix(self, pe4, f_pe4):
        # Each false sub-function contributes exactly one ±1/sqrt2 amplitude
        # inside its routed rejecting group; slots 6 and 10 stay empty.
        algorithm = or_construct(pe4, pe4).algorithm
        probe = QQA(
            algorithm.arity, 16, algorithm.initial, algorithm.steps[:-1], algorithm.measurement
        )
        states = run_all(probe)
        for i, x in enumerate(all_inputs(8)):
            state = states[i]
            b1 = f_pe4.evaluate(x[:4])
            b2 = f_pe4.evaluate(x[4:])
            first = np.abs(state[[2, 3, 4]])
            second = np.abs(state[[6, 7, 8]])
            assert abs(state[5]) < 1e-9 and abs(state[9]) < 1e-9
            assert np.count_nonzero(first > 1e-9) == (0 if b1 else 1)
            assert np.count_nonzero(second > 1e-9) == (0 if b2 else 1)

    def test_equality_inputs_also_reach_five_eighths(self, eq3):
        result = or_construct(eq3, eq3)
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(5 / 8, abs=1e-9)
        assert result.target.arity == 6

    def test_rejects_wrong_amplitude_count(self, eq3):
        eight = and_construct(eq3, eq3).algorithm
        with pytest.raises(ValueError, match="4-amplitude"):
            or_construct(eight, eq3)

    def test_rejects_bounded_error_input(self, eq3, pe4):
        bounded = or_construct(pe4, pe4).algorithm
        with pytest.raises(ValueError, match="4-amplitude|certain outcome"):
            or_construct(bounded, pe4)


_H = np.array([[S, S], [S, -S]])

#: Parts that break a combiner's precondition on known inputs, by name.  The
#: accepting amplitude of ``signs`` is ((-1)^x0 - (-1)^x1) / 2: 0, +1, -1, 0.
#: ``uncertain`` splits inputs 01 and 10 evenly over outputs 1 and 2.
#: ``phased`` is certain, with accepting amplitude -i exactly when x0 is 1.
_BROKEN_PARTS = {
    "signs": lambda eq3: QQA(2, 2, [1, 0], (_H, QueryGate((0, 1)), _H), (0, 1)),
    "two-accepting": lambda eq3: replace(eq3, measurement=(1, 1, 0, 0)),
    "uncertain": lambda eq3: QQA(
        2, 4, [S, S, 0, 0],
        (
            QueryGate((0, 1, None, None)),
            block_diag([_H, np.eye(2)]),
            block_diag([[[1]], _H, [[1]]]),
        ),
        (0, 0, 0, 1),
    ),
    "phased": lambda eq3: QQA(
        2, 4, [S, S, 0, 0],
        (QueryGate((0, None, None, None)), block_diag([_H, np.eye(2)]), np.diag([1, 1j, 1, 1])),
        (0, 1, 0, 0),
    ),
}

_SIGNS = "accepting amplitude must stay in {0, +1} or {0, -1} on every input; "
_SIGNED_UNIT = "needs a certain outcome with one accepting amplitude in {-1, 0, +1}; "


class TestPreconditionWitnesses:
    """A part that breaks a combiner's precondition is named with an input that breaks it."""

    @pytest.mark.parametrize(
        "combine, part, message",
        [
            (
                lambda eq3, part: and_construct(eq3, part), "signs",
                "second input: " + _SIGNS
                + "its accepting amplitude leaves {0, +1} on input 10 and {0, -1} on input 01",
            ),
            (
                lambda eq3, part: majority_even4_construct(eq3, eq3, part, eq3), "signs",
                "input 3: " + _SIGNS
                + "its accepting amplitude leaves {0, +1} on input 10 and {0, -1} on input 01",
            ),
            (
                lambda eq3, part: and_construct(part, eq3), "two-accepting",
                "first input: " + _SIGNS + "it has 2 accepting outputs",
            ),
            (
                lambda eq3, part: or_construct(eq3, part), "uncertain",
                "second input: " + _SIGNED_UNIT + "no outcome is certain on input 01",
            ),
            (
                lambda eq3, part: or_construct(part, eq3), "phased",
                "first input: " + _SIGNED_UNIT
                + "its accepting amplitude leaves {-1, 0, +1} on input 10",
            ),
            (
                lambda eq3, part: or_construct(part, eq3), "two-accepting",
                "first input: " + _SIGNED_UNIT + "it has 2 accepting outputs",
            ),
        ],
        ids=["and-signs", "majority-signs", "and-two-accepting", "or-uncertain", "or-phased",
             "or-two-accepting"],
    )
    def test_error_names_the_first_breaking_input(self, eq3, combine, part, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            combine(eq3, _BROKEN_PARTS[part](eq3))


class TestMajorityEven4:
    def test_target_and_probability(self, eq3, f_eq3):
        result = majority_even4_construct(eq3, eq3, eq3, eq3)
        assert result.target == majority_compose([f_eq3] * 4, even=True)
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(9 / 16, abs=1e-9)
        assert report.queries == 2

    def test_closed_form_quarter_counts(self, eq3, f_eq3):
        p_one = _p_one(majority_even4_construct(eq3, eq3, eq3, eq3).algorithm)
        for i, x in enumerate(all_inputs(12)):
            b = sum(f_eq3.evaluate(x[3 * k:3 * k + 3]) for k in range(4))
            assert p_one[i] == pytest.approx(b * b / 16.0, abs=1e-9)

    def test_all_constant_inputs(self):
        c = constant_one_algorithm(num_amplitudes=2, arity=1, queries=0)
        result = majority_even4_construct(c, c, c, c)
        report = verify(result.algorithm, result.target)
        assert report.exact
        assert result.target == named_function("constant1", 4)

    def test_rejects_zero_arity_input(self, eq3):
        filler = constant_one_algorithm(num_amplitudes=1, arity=0, queries=0)
        with pytest.raises(ValueError, match="at least one variable"):
            majority_even4_construct(eq3, eq3, eq3, filler)

    def test_every_gate_unitary(self, eq3):
        algorithm = majority_even4_construct(eq3, eq3, eq3, eq3).algorithm
        for step in algorithm.steps:
            if not isinstance(step, QueryGate):
                assert is_unitary(step, tol=1e-10)


class TestMajority3:
    def test_target_and_probability(self, eq3, f_eq3):
        result = majority3_construct(eq3, eq3, eq3)
        assert result.target == majority_compose([f_eq3] * 3, even=False)
        assert result.algorithm.arity == 9
        report = verify(result.algorithm, result.target)
        assert report.worst_case_p == pytest.approx(9 / 16, abs=1e-9)
        assert report.queries == 2

    def test_closed_form_with_constant_slot(self, eq3, f_eq3):
        p_one = _p_one(majority3_construct(eq3, eq3, eq3).algorithm)
        for i, x in enumerate(all_inputs(9)):
            b = sum(f_eq3.evaluate(x[3 * k:3 * k + 3]) for k in range(3))
            assert p_one[i] == pytest.approx((b + 1) ** 2 / 16.0, abs=1e-9)

    def test_two_of_three_true_hits_floor(self, eq3, f_eq3):
        result = majority3_construct(eq3, eq3, eq3)
        report = verify(result.algorithm, result.target)
        x = "000111001"  # blocks true, true, false
        assert result.target.evaluate(x) == 1
        assert report.per_input[x] == pytest.approx(9 / 16, abs=1e-9)

    def test_none_true_is_nearly_certain_rejection(self, eq3, f_eq3):
        result = majority3_construct(eq3, eq3, eq3)
        report = verify(result.algorithm, result.target)
        x = "001001001"
        assert result.target.evaluate(x) == 0
        assert report.per_input[x] == pytest.approx(15 / 16, abs=1e-9)


@pytest.mark.parametrize("row, floor", zip(
    constructors._COMBINERS, [Fraction(3, 4), Fraction(5, 8), Fraction(9, 16), Fraction(9, 16)]),
    ids=lambda value: getattr(value, "method", str(value)))
def test_each_row_states_p_one_and_its_floor_follows(row, floor):
    assert len(row.p_one) == row.parts + 1
    assert all(type(p) is Fraction for p in (*row.p_one, row.floor))
    assert row.floor == floor


class TestAssembledFromCheckedParts:
    """The combiners and transforms check only the gates that are new."""

    def test_public_constructor_rebuilds_every_catalog_algorithm(self, full_catalog):
        # The checks that the combiners and transforms skip would have passed.
        algorithms = [e.algorithm for s in full_catalog.values() for e in s.entries]
        for name, base in (("e", equality3_algorithm()), ("p", pair_equality4_algorithm())):
            algorithms += [e.algorithm for e in catalog._transform_variants(name, base)]
        mixing = catalog._pool(full_catalog["qfunc3"].entries, catalog._COMBINED["and"])
        algorithms += [e.algorithm for e in mixing]
        assert len(algorithms) == 624 + 240 + 4
        for a in algorithms:
            assert (_unitarity_errors(a._gates) <= UNITARY_TOL).all()
            rebuilt = QQA(a.arity, a.amplitudes, a.initial, a.steps, a.measurement)
            assert rebuilt._gates.dtype == a._gates.dtype == np.float64
            assert rebuilt._gates.tobytes() == a._gates.tobytes()
            assert [getattr(step, "assignments", None) for step in rebuilt.steps] == [
                getattr(step, "assignments", None) for step in a.steps
            ]
            assert rebuilt.measurement == a.measurement
            assert simulator._answers(rebuilt) == simulator._answers(a)

    @pytest.mark.parametrize(
        "combine, parts",
        [
            (and_construct, ("eq3", "eq3")),
            (or_construct, ("pe4", "eq3")),
            (majority_even4_construct, ("eq3",) * 4),
            (majority3_construct, ("eq3",) * 3),
        ],
    )
    def test_mixing_gates_are_checked_by_every_construction(
        self, eq3, pe4, count_checks, combine, parts
    ):
        algs = [{"eq3": eq3, "pe4": pe4}[name] for name in parts]
        # Another accepting output, so other mixing gates; in {0, +1}, so no sign flip.
        moved = normalize_accepting_sign(permute_outputs(eq3, [1, 0, 2, 3]))
        checked = count_checks()
        first = combine(*algs).algorithm
        tail = 1 if combine is and_construct else 2
        assert checked == [tail]  # the mixing gates, none of the parts' gates
        second = combine(*algs).algorithm
        other = combine(*[moved if a is eq3 else a for a in algs]).algorithm
        assert checked == [tail] * 3  # each later one checks its own mixing gates, and only them
        assert second._gates.tobytes() == first._gates.tobytes()
        assert other._gates[-tail:].tobytes() != first._gates[-tail:].tobytes()

    @pytest.mark.parametrize(
        "combine, parts, builder, at",
        [
            (and_construct, ("eq3", "eq3"), "_hadamard_pairs", 5),
            (or_construct, ("pe4", "eq3"), "_or_routing", 5),
            (or_construct, ("pe4", "eq3"), "_or_mix", 6),
            (majority3_construct, ("eq3",) * 3, "_hadamard_pairs", 5),
        ],
    )
    def test_a_broken_mixing_gate_is_named_and_not_trusted(
        self, eq3, pe4, monkeypatch, combine, parts, builder, at
    ):
        algs = [{"eq3": eq3, "pe4": pe4}[name] for name in parts]
        combine(*algs)  # a construction with the real builder first
        build = getattr(constructors, builder)
        monkeypatch.setattr(constructors, builder, lambda *args: 2 * build(*args))
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"^steps\[{at}\]\.unitary: matrix is not unitary"):
                combine(*algs)

    def test_a_builder_wrong_for_some_arguments_only_is_caught(self, eq3, pe4, monkeypatch):
        build = constructors._or_routing
        monkeypatch.setattr(
            constructors, "_or_routing",
            lambda acc1, acc2: 2 * build(acc1, acc2) if acc2 == 1 else build(acc1, acc2),
        )
        or_construct(pe4, eq3)  # accepting outputs 0 and 0: a right gate
        moved = permute_outputs(eq3, [1, 0, 2, 3])  # accepting output 1
        with pytest.raises(ValueError, match=r"^steps\[5\]\.unitary: matrix is not unitary"):
            or_construct(pe4, moved)

    def test_the_tables_are_read_only(self, pe4, eq3):
        or_construct(pe4, eq3)
        assert not constructors._or_routing(0, 0).flags.writeable
        assert not constructors._or_mix().flags.writeable

    @pytest.mark.parametrize("pairs", [((0, 1), (1, 2)), ((0, 0),), ((0, 4),), ((-1, 0),)])
    def test_hadamard_pairs_must_be_disjoint_positions(self, pairs):
        with pytest.raises(ValueError, match="disjoint positions below 4"):
            constructors._hadamard_pairs(4, pairs)

    def test_combined_arity_above_the_limit(self, eq3):
        wide = QQA(5, eq3.amplitudes, eq3.initial, eq3.steps, eq3.measurement)  # 2 unread variables
        with pytest.raises(ValueError, match=f"^arity must be between 0 and {MAX_ARITY}, got 20$"):
            majority_even4_construct(wide, wide, wide, wide)


def _broken_copies(eq3):
    """(what is wrong, QQA's fields with it, the message) for each field ``_assembled`` checks.

    A case with several faults names the first in the order the checker
    keeps.  ``gates`` and ``trusted``, where given, are what a builder would
    hand ``_assembled`` for those steps; by default eq3's gates, all checked.
    """
    fields = dict(arity=3, amplitudes=4, initial=eq3.initial, steps=eq3.steps,
                  measurement=eq3.measurement)
    steps = list(eq3.steps)
    out_of_range = steps[:1] + [QueryGate((0, 1, 0, 3))] + steps[2:]
    short = steps[:3] + [QueryGate((2, 0, 0))] + steps[4:]
    not_an_index = steps[:1] + [QueryGate((0, 1.0, 0, 1))] + steps[2:]
    doubled = 2 * np.eye(4)
    doubled_first = (doubled, out_of_range[1], *steps[2:])
    doubled_after = (*out_of_range[:2], doubled, *steps[3:])
    measurement_message = "measurement must assign 0 or 1 to each of the 4 outputs"
    arity_message = f"arity must be between 0 and {MAX_ARITY}, got {MAX_ARITY + 1}"
    return [
        ("measurement value", {**fields, "measurement": (1, 2, 0, 0)}, measurement_message),
        ("measurement length", {**fields, "measurement": (1, 0, 0)}, measurement_message),
        ("boolean measurement", {**fields, "measurement": (True, 0, 0, 0)}, measurement_message),
        ("variable out of range", {**fields, "steps": tuple(out_of_range)},
         "steps[1].query[3]: variable out of range for arity 3"),
        ("short query gate", {**fields, "steps": tuple(short)},
         "steps[3].query: query gate needs 4 assignments"),
        ("variable not an index", {**fields, "steps": tuple(not_an_index)},
         "steps[1].query[1]: expected None or a variable index, got 1.0"),
        ("initial not unit-norm", {**fields, "initial": np.array([1.0, 1.0, 0.0, 0.0])},
         "initial: state is not unit-norm (norm 2.0)"),
        ("initial shape", {**fields, "initial": np.array([1.0, 0.0, 0.0])},
         "initial state must have shape (4,), got (3,)"),
        ("initial not finite", {**fields, "initial": np.array([np.nan, 0.0, 0.0, 0.0])},
         "initial: state is not unit-norm (norm nan)"),
        ("arity", {**fields, "arity": MAX_ARITY + 1}, arity_message),
        ("initial, then a query",
         {**fields, "initial": np.array([1.0, 1.0, 0.0, 0.0]), "steps": tuple(out_of_range)},
         "initial: state is not unit-norm (norm 2.0)"),
        ("a query, then the measurement",
         {**fields, "measurement": (1, 2, 0, 0), "steps": tuple(short)},
         "steps[3].query: query gate needs 4 assignments"),
        ("a gate, then a query",
         {**fields, "steps": doubled_first,
          "gates": np.array([doubled, steps[2], steps[4]], dtype=complex), "trusted": 0},
         "steps[0].unitary: matrix is not unitary within 1e-10 (largest |UU† - I| entry 3.0)"),
        ("a query, then a gate",
         {**fields, "steps": doubled_after,
          "gates": np.array([steps[0], doubled, steps[4]], dtype=complex), "trusted": 1},
         "steps[1].query[3]: variable out of range for arity 3"),
        ("arity, then the amplitudes",
         {**fields, "arity": MAX_ARITY + 1, "amplitudes": 0, "steps": (),
          "gates": np.empty((0, 0, 0), dtype=complex), "trusted": 0},
         arity_message),
    ]


@pytest.mark.parametrize("case", range(15))
def test_assembled_rejects_with_the_public_message(eq3, case):
    what, fields, message = _broken_copies(eq3)[case]
    with pytest.raises(ValueError) as public:
        QQA(fields["arity"], fields["amplitudes"], fields["initial"], fields["steps"],
            fields["measurement"])
    gates = fields.get("gates", eq3._gates)
    with pytest.raises(ValueError) as private:
        _assembled(fields["arity"], fields["initial"], gates, fields.get("trusted", len(gates)),
                   fields["steps"], fields["measurement"])
    assert str(public.value) == message, what
    assert str(private.value) == str(public.value), what


def test_every_broken_copy_is_tested(eq3):
    assert len(_broken_copies(eq3)) == 15


def test_assembled_checks_new_gates_in_one_batch_and_names_the_first(eq3, count_checks):
    broken = np.concatenate([eq3._gates, [np.eye(4), 2 * np.eye(4)]]).astype(complex)
    steps = eq3.steps + (np.eye(4), QueryGate((0, 1, 2, None)), 2 * np.eye(4))
    with pytest.raises(ValueError) as public:
        QQA(3, 4, eq3.initial, steps, eq3.measurement)
    checked = count_checks()
    with pytest.raises(ValueError) as private:
        _assembled(3, eq3.initial, broken, len(eq3._gates), steps, eq3.measurement)
    assert str(private.value) == str(public.value)
    assert str(private.value).startswith("steps[7].unitary: matrix is not unitary")
    assert checked == [2]  # the parts' gates are not checked again
