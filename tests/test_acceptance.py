"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""
import functools
import random

import numpy as np

from conftest import EQUALITY3_TABLE, PAIR_EQUALITY4_TABLE
from qqasim.boolfun import (
    all_inputs,
    combine_disjoint,
    majority_compose,
    sensitivity,
)
from qqasim.constructors import (
    and_construct,
    majority3_construct,
    majority_even4_construct,
    or_construct,
)
from qqasim.linalg import is_unitary
from qqasim.serialize import from_document, to_document
from qqasim.simulator import (
    QueryGate,
    StructuralProperty,
    check_property,
    computed_function,
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

PROB_TOL = 1e-9
STATE_TOL = 1e-9
GATE_TOL = 1e-10


def criterion(num, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {description}")
                raise
            print(f"PASS criterion {num:2d}: {description}")

        return wrapper

    return decorator


@criterion(1, "golden traces reproduce every expected row within 1e-9")
def test_criterion_1_golden_traces(eq3, pe4):
    for algorithm, table in ((eq3, EQUALITY3_TABLE), (pe4, PAIR_EQUALITY4_TABLE)):
        for input_bits, (after_first, after_second, final, result) in table.items():
            t = trace(algorithm, input_bits)
            assert np.allclose(t.states[2], after_first, atol=STATE_TOL)
            assert np.allclose(t.states[4], after_second, atol=STATE_TOL)
            assert np.allclose(t.states[5], final, atol=STATE_TOL)
            _, probs = run(algorithm, input_bits)
            assert abs(probs[result] - 1.0) <= PROB_TOL


@criterion(2, "both built-in algorithms are exact with 2 queries")
def test_criterion_2_exactness(eq3, pe4, f_eq3, f_pe4):
    for algorithm, function in ((eq3, f_eq3), (pe4, f_pe4)):
        report = verify(algorithm, function)
        assert report.exact
        assert report.queries == 2


@criterion(3, "sensitivity values 3, 4, 6, 9 from exhaustive scan")
def test_criterion_3_sensitivity(f_eq3, f_pe4):
    assert sensitivity(f_eq3).value == 3
    assert sensitivity(f_pe4).value == 4
    assert sensitivity(combine_disjoint(f_eq3, f_eq3, "and")).value == 6
    assert sensitivity(majority_compose([f_eq3] * 4, even=True)).value == 9


@criterion(4, "and-combination reaches worst-case 3/4 with per-case P(1) of 0, 1/4, 1/4, 1")
def test_criterion_4_and_probability(eq3, f_eq3):
    result = and_construct(eq3, eq3)
    target = combine_disjoint(f_eq3, f_eq3, "and")
    assert result.target == target
    report = verify(result.algorithm, target)
    assert abs(report.worst_case_p - 3 / 4) <= PROB_TOL
    case_p = {(0, 0): 0.0, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 1.0}
    for x in all_inputs(6):
        _, probs = run(result.algorithm, x)
        key = (f_eq3.evaluate(x[:3]), f_eq3.evaluate(x[3:]))
        assert abs(probs[1] - case_p[key]) <= PROB_TOL


@criterion(5, "or-combination reaches worst-case 5/8 with case-IV P(1) = 1/4")
def test_criterion_5_or_probability(pe4, f_pe4):
    result = or_construct(pe4, pe4)
    target = combine_disjoint(f_pe4, f_pe4, "or")
    assert result.target == target
    report = verify(result.algorithm, target)
    assert abs(report.worst_case_p - 5 / 8) <= PROB_TOL
    for x in all_inputs(8):
        if f_pe4.evaluate(x[:4]) == 0 and f_pe4.evaluate(x[4:]) == 0:
            _, probs = run(result.algorithm, x)
            assert abs(probs[1] - 1 / 4) <= PROB_TOL


@criterion(6, "four-way majority reaches worst-case 9/16 with P(1) = b^2/16 on all 4096 inputs")
def test_criterion_6_majority_probability(eq3, f_eq3):
    result = majority_even4_construct(eq3, eq3, eq3, eq3)
    report = verify(result.algorithm, result.target)
    assert abs(report.worst_case_p - 9 / 16) <= PROB_TOL
    states = run_all(result.algorithm)
    mask = np.array(result.algorithm.measurement) == 1
    p_one = (np.abs(states[:, mask]) ** 2).sum(axis=1)
    for i, x in enumerate(all_inputs(12)):
        b = sum(f_eq3.evaluate(x[3 * k:3 * k + 3]) for k in range(4))
        assert abs(p_one[i] - b * b / 16.0) <= PROB_TOL


@criterion(7, "catalog sizes are 8, 24, 16, 256, 256, 64 with 832 applications, all re-verified")
def test_criterion_7_catalog_counts(full_catalog):
    sizes = {name: len(s.entries) for name, s in full_catalog.items()}
    assert sizes == {
        "qfunc3": 8,
        "qfunc4": 24,
        "and": 16,
        "or": 256,
        "maj_even4": 256,
        "majority3": 64,
    }
    assert sum(s.candidates for s in full_catalog.values()) == 832
    assert sum(len(s.entries) for s in full_catalog.values()) == 624
    for family in full_catalog.values():
        for entry in family.entries:
            report = verify(entry.algorithm, entry.function)
            assert report.queries == 2
            if family.guaranteed_p == 1.0:
                assert report.exact
            else:
                assert abs(report.worst_case_p - family.guaranteed_p) <= PROB_TOL


@criterion(8, "structural property suite, including sign normalization")
def test_criterion_8_property_suite(eq3, pe4):
    assert check_property(eq3, StructuralProperty.CERTAIN_OUTCOME)
    assert check_property(eq3, StructuralProperty.ACCEPT_PLUS_ONE)
    assert check_property(eq3, StructuralProperty.ACCEPT_SIGNED_UNIT)
    assert check_property(pe4, StructuralProperty.CERTAIN_OUTCOME)
    assert check_property(pe4, StructuralProperty.ACCEPT_SIGNED_UNIT)
    assert not check_property(pe4, StructuralProperty.ACCEPT_PLUS_ONE)

    variant = permute_outputs(eq3, [3, 1, 2, 0])  # accepting value at the last output
    assert check_property(variant, StructuralProperty.ACCEPT_MINUS_ONE)
    normalized = normalize_accepting_sign(variant)
    assert check_property(normalized, StructuralProperty.ACCEPT_PLUS_ONE)
    assert computed_function(normalized) == computed_function(variant)


@criterion(9, "transformation semantics hold on 100 random samples")
def test_criterion_9_transformation_semantics(eq3, pe4):
    rng = random.Random(20260808)
    bases = (eq3, pe4)
    for _ in range(100):
        base = bases[rng.randrange(2)]
        sigma = list(range(base.arity))
        rng.shuffle(sigma)
        input_bits = "".join(rng.choice("01") for _ in range(base.arity))

        transformed = permute_variables(base, sigma)
        lhs = trace(transformed, input_bits).states
        seen = "".join(input_bits[s] for s in sigma)  # the input the base algorithm reads
        rhs = trace(base, seen).states
        assert len(lhs) == len(rhs)
        for left, right in zip(lhs, rhs):
            assert np.allclose(left, right, atol=1e-12)

        assert invert_outputs(invert_outputs(base)).measurement == base.measurement

        output_sigma = list(range(base.amplitudes))
        rng.shuffle(output_sigma)
        permuted = permute_outputs(base, output_sigma)
        assert verify(permuted, computed_function(permuted)).exact


@criterion(10, "unitarity at 1e-10, unit norms at 1e-9, save/load preserves verification")
def test_criterion_10_structural_invariants(eq3, pe4, f_eq3, f_pe4):
    built = [
        (eq3, f_eq3),
        (pe4, f_pe4),
        (and_construct(eq3, eq3).algorithm, combine_disjoint(f_eq3, f_eq3, "and")),
        (or_construct(pe4, pe4).algorithm, combine_disjoint(f_pe4, f_pe4, "or")),
        (
            majority_even4_construct(eq3, eq3, eq3, eq3).algorithm,
            majority_compose([f_eq3] * 4, even=True),
        ),
        (
            majority3_construct(eq3, eq3, eq3).algorithm,
            majority_compose([f_eq3] * 3, even=False),
        ),
    ]
    for algorithm, function in built:
        for step in algorithm.steps:
            if not isinstance(step, QueryGate):
                assert is_unitary(step, tol=GATE_TOL)
        states = run_all(algorithm)
        norms = np.sum(np.abs(states) ** 2, axis=1)
        assert float(np.abs(norms - 1.0).max()) <= STATE_TOL
        if algorithm.arity <= 6:
            for x in all_inputs(algorithm.arity):
                for state in trace(algorithm, x).states:
                    assert abs(np.linalg.norm(state) ** 2 - 1.0) <= STATE_TOL

        loaded = from_document(to_document(algorithm))
        for step in loaded.steps:
            if not isinstance(step, QueryGate):
                assert is_unitary(step, tol=GATE_TOL)
        before = verify(algorithm, function)
        after = verify(loaded, function)
        assert after.exact == before.exact
        assert abs(after.worst_case_p - before.worst_case_p) <= 1e-12
        assert after.queries == before.queries
