"""The headline probabilities in exact arithmetic over Q(√2), with sympy.

Every gate entry and initial amplitude of the built-ins and of the
combiners' outputs is a + b√2 with small rational a and b.  Each one is
recovered exactly, every gate is checked to be exactly orthogonal, and the
algorithm is run exactly on one input per pattern of true sub-functions, so
P(1) is compared with the paper's formula with no tolerance at all.
"""
import itertools
import math
from fractions import Fraction

import pytest
from sympy import QQ, Rational, sqrt
from sympy.polys.matrices import DomainMatrix

from qqasim import constructors
from qqasim.boolfun import all_inputs
from qqasim.simulator import QueryGate, computed_function

FIELD = QQ.algebraic_field(sqrt(2))


def _exact(x: complex, known: dict):
    """The one a + b√2, a and b multiples of 1/8 in [-2, 2], within 1e-12 of ``x``."""
    assert x.imag == 0, x
    if x.real not in known:
        matches = []
        for b in range(-16, 17):
            a = round((x.real - b * math.sqrt(2) / 8) * 8)
            if abs(a) <= 16 and abs(a / 8 + b * math.sqrt(2) / 8 - x.real) <= 1e-12:
                matches.append(FIELD.from_sympy(Rational(a, 8) + Rational(b, 8) * sqrt(2)))
        assert len(matches) == 1, x
        known[x.real] = matches[0]
    return known[x.real]


def _exact_algorithm(a):
    """The initial state as a 1 x m matrix, and the steps with every gate made exact."""
    known = {}
    m = a.amplitudes
    initial = DomainMatrix([[_exact(x, known) for x in a.initial]], (1, m), FIELD)
    steps = []
    for step in a.steps:
        if isinstance(step, QueryGate):
            steps.append(step)
            continue
        gate = DomainMatrix([[_exact(x, known) for x in row] for row in step], (m, m), FIELD)
        assert gate * gate.transpose() == DomainMatrix.eye(m, FIELD).to_dense()
        steps.append(gate)
    return initial, steps


def _exact_p_one(a, exact, bits: str):
    """P(output = 1) on input ``bits``, as an element of Q(√2)."""
    state, steps = exact
    m = a.amplitudes
    for step in steps:
        if isinstance(step, QueryGate):
            signs = [
                -FIELD.one if v is not None and bits[v] == "1" else FIELD.one
                for v in step.assignments
            ]
            state = state * DomainMatrix.diag(signs, FIELD, (m, m))
        else:
            state = state * step
    amplitudes = state.to_list()[0]
    return sum((amplitudes[j] ** 2 for j in a.accepting_outputs()), FIELD.zero)


def _field(value: Fraction):
    return FIELD.from_sympy(Rational(value.numerator, value.denominator))


@pytest.mark.parametrize("name", ["eq3", "pe4"])
def test_built_ins_are_exact(name, request):
    a = request.getfixturevalue(name)
    exact = _exact_algorithm(a)
    table = computed_function(a)
    for i, bits in enumerate(all_inputs(a.arity)):
        assert _exact_p_one(a, exact, bits) == _field(Fraction(table.bits[i]))


def _pattern_inputs(parts):
    """One input per pattern of true parts: the first input of each part with that value."""
    witnesses = []
    for part in parts:
        table = computed_function(part)
        inputs = list(all_inputs(part.arity))
        witnesses.append({value: inputs[table.bits.index(value)] for value in (0, 1)})
    for pattern in itertools.product((0, 1), repeat=len(parts)):
        yield sum(pattern), "".join(w[t] for w, t in zip(witnesses, pattern))


@pytest.mark.parametrize(
    "row, names",
    zip(constructors._COMBINERS, ["eq3 eq3", "eq3 pe4", "eq3 eq3 eq3 eq3", "eq3 eq3 eq3"]),
    ids=["and", "or", "maj_even4", "majority3"],
)
def test_combiners_hit_their_formulas_exactly(row, names, request):
    """Each row's P(1), majority3's counting its constant-1 filler as one more true part."""
    parts = [request.getfixturevalue(name) for name in names.split()]
    a = getattr(constructors, row.function)(*parts).algorithm
    exact = _exact_algorithm(a)
    for true_parts, bits in _pattern_inputs(parts):
        assert _exact_p_one(a, exact, bits) == _field(row.p_one[true_parts])
