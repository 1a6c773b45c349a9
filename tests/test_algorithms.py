"""Golden-trace tests: the built-in algorithms reproduce every expected row."""
import numpy as np
import pytest

from conftest import EQUALITY3_TABLE, PAIR_EQUALITY4_TABLE
from qqasim.algorithms import BUILTINS, constant_one_algorithm
from qqasim.boolfun import NAMED_FUNCTIONS, named_function
from qqasim.linalg import is_unitary
from qqasim.simulator import (
    QueryGate,
    StructuralProperty,
    check_property,
    computed_function,
    is_exact,
    run,
    trace,
    verify,
)


@pytest.mark.parametrize("input_bits", sorted(EQUALITY3_TABLE))
def test_equality3_golden_rows(eq3, input_bits):
    after_first, after_second, final, result = EQUALITY3_TABLE[input_bits]
    t = trace(eq3, input_bits)
    assert np.allclose(t.states[2], after_first, atol=1e-9)
    assert np.allclose(t.states[4], after_second, atol=1e-9)
    assert np.allclose(t.states[5], final, atol=1e-9)
    _, probs = run(eq3, input_bits)
    assert probs[result] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("input_bits", sorted(PAIR_EQUALITY4_TABLE))
def test_pair_equality4_golden_rows(pe4, input_bits):
    after_first, after_second, final, result = PAIR_EQUALITY4_TABLE[input_bits]
    t = trace(pe4, input_bits)
    assert np.allclose(t.states[2], after_first, atol=1e-9)
    assert np.allclose(t.states[4], after_second, atol=1e-9)
    assert np.allclose(t.states[5], final, atol=1e-9)
    _, probs = run(pe4, input_bits)
    assert probs[result] == pytest.approx(1.0, abs=1e-9)


def test_equality3_is_exact_with_two_queries(eq3, f_eq3):
    report = verify(eq3, f_eq3)
    assert report.exact and report.queries == 2


def test_pair_equality4_is_exact_with_two_queries(pe4, f_pe4):
    report = verify(pe4, f_pe4)
    assert report.exact and report.queries == 2


def test_all_gates_unitary(eq3, pe4):
    for a in (eq3, pe4):
        unitaries = [s for s in a.steps if not isinstance(s, QueryGate)]
        assert len(unitaries) == 3
        assert all(is_unitary(u, tol=1e-10) for u in unitaries)


def test_pair_equality4_signed_unit_but_not_plus(pe4):
    assert check_property(pe4, StructuralProperty.ACCEPT_SIGNED_UNIT)
    assert not check_property(pe4, StructuralProperty.ACCEPT_PLUS_ONE)


class TestConstantOne:
    def test_identity_pipeline(self):
        a = constant_one_algorithm(num_amplitudes=4, arity=3, queries=2)
        for bits in ("000", "101", "111"):
            final, probs = run(a, bits)
            assert np.allclose(final, [1, 0, 0, 0])
            assert probs[1] == pytest.approx(1.0)

    def test_accept_plus_discipline(self):
        a = constant_one_algorithm(num_amplitudes=2, arity=2, queries=1)
        assert check_property(a, StructuralProperty.ACCEPT_PLUS_ONE)

    def test_verifies_against_constant(self):
        a = constant_one_algorithm(num_amplitudes=1, arity=2, queries=0)
        report = verify(a, named_function("constant1", 2))
        assert report.exact and report.queries == 0

    def test_query_padding_counts(self):
        assert constant_one_algorithm(queries=3).query_count == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            constant_one_algorithm(num_amplitudes=0)
        with pytest.raises(ValueError):
            constant_one_algorithm(queries=-1)

    @pytest.mark.parametrize(
        "size, value",
        [("num_amplitudes", True), ("num_amplitudes", 2.0), ("queries", 1.5),
         ("queries", False), ("arity", True)],
    )
    def test_sizes_must_be_integers(self, size, value):
        with pytest.raises(ValueError, match=f"^{size} must be an integer, got {value!r}$"):
            constant_one_algorithm(**{size: value})

    def test_numpy_integer_sizes_are_taken(self):
        a = constant_one_algorithm(np.int64(2), np.int32(3), np.uint8(1))
        assert (a.amplitudes, a.arity, a.query_count) == (2, 3, 1)
        assert type(a.amplitudes) is int and type(a.arity) is int


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_computes_the_function_of_its_name(name):
    build = BUILTINS[name]
    if NAMED_FUNCTIONS[name]:
        for arity in (1, 3):
            a = build(arity)
            assert computed_function(a) == named_function(name, arity) and is_exact(a)
    else:
        a = build()
        assert computed_function(a) == named_function(name) and is_exact(a)
