import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qqasim.algorithms import constant_one_algorithm, pair_equality4_algorithm
from qqasim.boolfun import all_inputs, from_accepting, named_function
from qqasim.constructors import and_construct
from qqasim.simulator import (
    QueryGate,
    StructuralProperty,
    check_property,
    computed_function,
    run,
    run_all,
    verify,
)
from qqasim.transforms import (
    invert_outputs,
    normalize_accepting_sign,
    permute_outputs,
    permute_variables,
)


class TestInvertOutputs:
    def test_computes_complement_exactly(self, eq3, f_eq3):
        inverted = invert_outputs(eq3)
        report = verify(inverted, f_eq3.complement())
        assert report.exact and report.queries == 2

    def test_double_inversion_restores_measurement(self, pe4):
        assert invert_outputs(invert_outputs(pe4)).measurement == pe4.measurement

    def test_constant_one_becomes_constant_zero(self):
        a = constant_one_algorithm(num_amplitudes=2, arity=1, queries=0)
        inverted = invert_outputs(a)
        assert verify(inverted, named_function("constant0", 1)).exact

    def test_rejects_bounded_error_input(self, eq3):
        bounded = and_construct(eq3, eq3).algorithm
        with pytest.raises(ValueError, match="exact"):
            invert_outputs(bounded)

    def test_error_names_the_worst_input(self, eq3):
        bounded = and_construct(eq3, eq3).algorithm  # verify's witness is 000001
        with pytest.raises(ValueError) as error:
            invert_outputs(bounded)
        assert str(error.value) == (
            "output inversion requires an exact algorithm; worst-case p = 0.750000 on input 000001"
        )

    def test_success_probabilities_mirror(self, eq3, f_eq3):
        bounded = and_construct(eq3, eq3)
        # invert_outputs refuses bounded-error algorithms, so check the mirror
        # law on the exact base algorithm instead: success against the
        # complement after inversion equals success against f before.
        before = verify(eq3, f_eq3).per_input
        after = verify(invert_outputs(eq3), f_eq3.complement()).per_input
        assert set(before) == set(after)
        for x in before:
            assert after[x] == pytest.approx(before[x], abs=1e-12)
        assert bounded.guaranteed_p == 0.75  # fixture reuse guard


class TestPermuteOutputs:
    def test_move_accepting_to_output_three(self, eq3):
        moved = permute_outputs(eq3, [2, 1, 0, 3])
        f = computed_function(moved)
        assert f.accepting_inputs() == ["010", "101"]
        assert verify(moved, f).exact

    def test_identity_keeps_function(self, eq3, f_eq3):
        assert computed_function(permute_outputs(eq3, range(4))) == f_eq3

    def test_all_placements_give_four_distinct_functions(self, eq3):
        placements = set()
        for acc in range(4):
            sigma = list(range(4))
            sigma[0], sigma[acc] = sigma[acc], sigma[0]
            moved = permute_outputs(eq3, sigma)
            assert verify(moved, computed_function(moved)).exact
            placements.add(computed_function(moved).bits)
        assert len(placements) == 4

    def test_requires_certain_outcome(self, eq3):
        bounded = and_construct(eq3, eq3).algorithm
        with pytest.raises(ValueError, match="basis state"):
            permute_outputs(bounded, range(8))

    def test_error_names_the_first_uncertain_input(self, eq3):
        bounded = and_construct(eq3, eq3).algorithm  # 000000 is certain, 000001 is not
        with pytest.raises(ValueError) as error:
            permute_outputs(bounded, range(8))
        assert str(error.value) == (
            "output permutation requires all probability on one basis state for every input; "
            "no outcome is certain on input 000001"
        )

    def test_requires_bijection(self, eq3):
        with pytest.raises(ValueError, match="permutation"):
            permute_outputs(eq3, [0, 0, 1, 2])

    @pytest.mark.parametrize("sigma", [(True, False, 2, 3), (1, 0, 2, True), (1.0, 0.0, 2.0, 3.0)])
    def test_only_integers_form_a_permutation(self, eq3, sigma):
        with pytest.raises(ValueError) as error:
            permute_outputs(eq3, list(sigma))
        assert str(error.value) == f"output permutation must be a permutation of 0..3, got {sigma}"

    def test_numpy_integers_are_taken(self, eq3):
        moved = permute_outputs(eq3, np.array([3, 1, 2, 0]))
        assert moved.measurement == permute_outputs(eq3, [3, 1, 2, 0]).measurement == (0, 0, 0, 1)
        assert set(map(type, moved.measurement)) == {int}


class TestPermuteVariables:
    def test_symmetric_function_unchanged(self, eq3, f_eq3):
        for sigma in itertools.permutations(range(3)):
            assert verify(permute_variables(eq3, sigma), f_eq3).exact

    def test_swap_middle_variables(self, pe4):
        swapped = permute_variables(pe4, [0, 2, 1, 3])
        expected = from_accepting(
            4,
            [x for x in all_inputs(4) if x[0] == x[2] and x[1] == x[3]],
        )
        assert computed_function(swapped) == expected

    @pytest.mark.parametrize(
        "sigma", [(True, False, 2), (1, 0, True), (1.0, 0.0, 2.0), (0, 1, 2.5)]
    )
    def test_only_integers_form_a_permutation(self, eq3, sigma):
        # QQA's own check would reject (True, False, 2) naming steps[1].query[0] instead.
        with pytest.raises(ValueError) as error:
            permute_variables(eq3, list(sigma))
        expected = f"variable permutation must be a permutation of 0..2, got {sigma}"
        assert str(error.value) == expected

    def test_numpy_integers_are_taken(self, eq3):
        moved = permute_variables(eq3, np.array([2, 0, 1], dtype=np.int8))
        expected = permute_variables(eq3, [2, 0, 1])
        queries = [s.assignments for s in moved.steps if isinstance(s, QueryGate)]
        assert queries == [s.assignments for s in expected.steps if isinstance(s, QueryGate)]
        assert {type(v) for q in queries for v in q if v is not None} == {int}

    def test_identity_is_noop(self, eq3):
        same = permute_variables(eq3, range(3))
        for original, new in zip(eq3.steps, same.steps):
            if isinstance(original, QueryGate):
                assert new.assignments == original.assignments

    @given(st.permutations(range(4)), st.integers(0, 15))
    def test_state_for_state_semantics(self, sigma, row):
        pe4 = pair_equality4_algorithm()
        bits = format(row, "04b")
        transformed, _ = run(permute_variables(pe4, sigma), bits)
        seen = "".join(bits[s] for s in sigma)  # the input pe4 reads under the permutation
        original, _ = run(pe4, seen)
        assert np.allclose(transformed, original, atol=1e-12)


class TestNormalizeAcceptingSign:
    def test_negative_variant_becomes_positive(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])  # accepting value at output 4
        assert check_property(moved, StructuralProperty.ACCEPT_MINUS_ONE)
        fixed = normalize_accepting_sign(moved)
        assert check_property(fixed, StructuralProperty.ACCEPT_PLUS_ONE)

    def test_function_unchanged(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])
        assert computed_function(normalize_accepting_sign(moved)) == computed_function(moved)

    def test_appended_gate_is_signed_diagonal(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])
        fixed = normalize_accepting_sign(moved)
        gate = fixed.steps[-1]
        assert np.allclose(np.abs(np.diag(gate)), 1.0)
        assert np.count_nonzero(gate - np.diag(np.diag(gate))) == 0

    def test_amplitude_magnitudes_preserved(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])
        fixed = normalize_accepting_sign(moved)
        assert np.allclose(np.abs(run_all(fixed)), np.abs(run_all(moved)), atol=1e-12)

    def test_rejects_positive_discipline_input(self, eq3):
        with pytest.raises(ValueError, match="sign normalization"):
            normalize_accepting_sign(eq3)

    @pytest.mark.parametrize(
        "source, why",
        [
            ("eq3", "its accepting amplitude leaves {0, -1} on input 000"),
            ("pe4", "its accepting amplitude leaves {0, -1} on input 0000"),  # +1 there, -1 on 0011
            ("inverted eq3", "it has 3 accepting outputs"),
        ],
    )
    def test_error_names_a_witness(self, eq3, pe4, source, why):
        a = {"eq3": eq3, "pe4": pe4, "inverted eq3": invert_outputs(eq3)}[source]
        with pytest.raises(ValueError) as error:
            normalize_accepting_sign(a)
        assert str(error.value) == (
            "sign normalization requires an accepting amplitude in {0, -1}; " + why
        )


class TestQueryCountPreservation:
    def test_all_transforms_keep_two_queries(self, eq3):
        moved = permute_outputs(eq3, [3, 1, 2, 0])
        transformed = [
            invert_outputs(eq3),
            permute_outputs(eq3, [1, 0, 2, 3]),
            permute_variables(eq3, [2, 0, 1]),
            normalize_accepting_sign(moved),
        ]
        assert all(t.query_count == 2 for t in transformed)


class TestGatesChecked:
    """A transform keeps its source's checked gates and checks only a gate it adds."""

    def test_relabelling_shares_the_source_gates(self, eq3, count_checks):
        checked = count_checks()
        for derived in (
            invert_outputs(eq3),
            permute_outputs(eq3, [1, 0, 2, 3]),
            permute_variables(eq3, [2, 0, 1]),
        ):
            assert derived._gates is eq3._gates
            gates = [step for step in derived.steps if not isinstance(step, QueryGate)]
            assert all(gate.base is eq3._gates and not gate.flags.writeable for gate in gates)
            assert derived._memo is None
        assert checked == []

    def test_sign_flip_checks_only_its_gate(self, eq3, count_checks):
        moved = permute_outputs(eq3, [3, 1, 2, 0])
        checked = count_checks()
        fixed = normalize_accepting_sign(moved)
        assert checked == [1]
        assert fixed._gates.dtype == moved._gates.dtype == np.float64
        assert fixed._gates[:-1].tobytes() == moved._gates.tobytes()
        assert fixed.steps[-1].base is fixed._gates and not fixed._gates.flags.writeable


def _draw_exact_entry(data, catalog):
    """One of the 32 exact catalog entries (``qfunc3`` and ``qfunc4``), as (algorithm, function)."""
    entry = data.draw(st.sampled_from(catalog["qfunc3"].entries + catalog["qfunc4"].entries))
    return entry.algorithm, entry.function


class TestTransformLaws:
    """What each transform computes, on the exact catalog entries under random permutations."""

    @given(st.data())
    def test_permute_variables_computes_f_after_sigma(self, full_catalog, data):
        a, f = _draw_exact_entry(data, full_catalog)
        sigma = data.draw(st.permutations(range(a.arity)))
        # g(x_0, x_1, ..) = f(x_sigma[0], x_sigma[1], ..)
        expected = bytes(f.evaluate("".join(x[v] for v in sigma)) for x in all_inputs(a.arity))
        assert computed_function(permute_variables(a, sigma)).bits == expected

    @given(st.data())
    def test_invert_outputs_computes_the_complement(self, full_catalog, data):
        a, _ = _draw_exact_entry(data, full_catalog)
        a = permute_variables(a, data.draw(st.permutations(range(a.arity))))
        assert computed_function(invert_outputs(a)) == computed_function(a).complement()

    @given(st.data())
    def test_permute_outputs_keeps_f_when_each_output_keeps_its_value(self, full_catalog, data):
        a, f = _draw_exact_entry(data, full_catalog)
        sigma = list(range(a.amplitudes))
        for value in (0, 1):
            outputs = [i for i, v in enumerate(a.measurement) if v == value]
            for i, j in zip(outputs, data.draw(st.permutations(outputs))):
                sigma[i] = j
        assert computed_function(permute_outputs(a, sigma)) == f

    @given(st.data())
    def test_normalize_accepting_sign_keeps_f(self, full_catalog, data):
        # Two of the 32 hold the {0, -1} discipline; relabelling variables keeps it.
        entries = full_catalog["qfunc3"].entries + full_catalog["qfunc4"].entries
        minus = [e for e in entries
                 if check_property(e.algorithm, StructuralProperty.ACCEPT_MINUS_ONE)]
        a = data.draw(st.sampled_from(minus)).algorithm
        a = permute_variables(a, data.draw(st.permutations(range(a.arity))))
        assert computed_function(normalize_accepting_sign(a)) == computed_function(a)

    @given(st.data())
    def test_every_transform_keeps_the_query_count(self, full_catalog, data):
        a, _ = _draw_exact_entry(data, full_catalog)
        placed = permute_outputs(a, data.draw(st.permutations(range(a.amplitudes))))
        transformed = [
            placed,
            permute_variables(a, data.draw(st.permutations(range(a.arity)))),
            invert_outputs(a),
        ]
        if check_property(placed, StructuralProperty.ACCEPT_MINUS_ONE):
            transformed.append(normalize_accepting_sign(placed))
        assert [t.query_count for t in transformed] == [a.query_count] * len(transformed)
