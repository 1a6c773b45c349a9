"""Built-in two-query algorithms over four basis states.

The gate sets below were derived by solving, step by step, for unitaries that
drive every input of the target function onto a single signed basis vector;
the expected evolution is frozen row by row in the test suite.  All gates are
real matrices.
"""
from __future__ import annotations

import math

import numpy as np

from .boolfun import _integer
from .linalg import block_diag
from .simulator import QQA, QueryGate

_S = 1.0 / math.sqrt(2.0)
H2 = np.array([[_S, _S], [_S, -_S]])


def equality3_algorithm() -> QQA:
    """Exact 2-query algorithm accepting exactly the all-equal 3-bit inputs.

    Output 1 carries value 1; the final amplitude there is +1 on 000 and 111
    and 0 otherwise, so the accepting amplitude always stays in {0, +1}.
    """
    u0 = np.kron(H2, H2)  # sends e1 to the uniform row (1/2, 1/2, 1/2, 1/2)
    q0 = QueryGate((0, 1, 0, 1))
    # Mix amplitudes 2 and 3: (a, b) -> ((a+b)/sqrt2, (b-a)/sqrt2).
    u1 = block_diag([np.eye(1), np.array([[_S, -_S], [_S, _S]]), np.eye(1)])
    q1 = QueryGate((2, 0, 0, 2))
    # Send each of the four reachable pre-final vectors to its own basis state.
    u2 = np.array(
        [
            [0.5, 0.5, 0.5, 0.5],
            [_S, 0.0, 0.0, -_S],
            [0.0, -_S, _S, 0.0],
            [0.5, -0.5, -0.5, 0.5],
        ]
    )
    return QQA(
        arity=3,
        amplitudes=4,
        initial=np.array([1.0, 0.0, 0.0, 0.0]),
        steps=(u0, q0, u1, q1, u2),
        measurement=(1, 0, 0, 0),
    )


def pair_equality4_algorithm() -> QQA:
    """Exact 2-query algorithm accepting 4-bit inputs equal within each pair.

    Accepts 0000, 0011, 1100 and 1111 (x1 = x2 and x3 = x4).  Output 1 carries
    value 1 with final amplitude +1 or -1 on accepting inputs, so the
    accepting amplitude ranges over {-1, 0, +1} rather than {0, +1}.
    """
    u0 = block_diag([H2, H2])  # sends e1 to (1/sqrt2, 1/sqrt2, 0, 0)
    q0 = QueryGate((0, 1, None, None))
    u1 = np.array(
        [
            [_S, _S, 0.0, 0.0],
            [0.0, 0.0, _S, _S],
            [_S, -_S, 0.0, 0.0],
            [0.0, 0.0, _S, -_S],
        ]
    )
    q1 = QueryGate((2, 3, 2, 3))
    u2 = np.kron(H2, H2)
    return QQA(
        arity=4,
        amplitudes=4,
        initial=np.array([1.0, 0.0, 0.0, 0.0]),
        steps=(u0, q0, u1, q1, u2),
        measurement=(1, 0, 0, 0),
    )


def constant_one_algorithm(num_amplitudes: int = 1, arity: int = 0, queries: int = 0) -> QQA:
    """Algorithm answering 1 with certainty on every input.

    The pipeline is pure padding: identity unitaries and all-identity query
    gates, so the state never leaves the first basis vector.  ``queries``
    no-op query steps make it schedulable alongside real algorithms when
    composing; ``arity`` fixes how many input variables it nominally reads.
    """
    num_amplitudes = _integer(num_amplitudes, "num_amplitudes")
    queries = _integer(queries, "queries")
    if num_amplitudes < 1:
        raise ValueError("need at least one amplitude")
    if queries < 0:
        raise ValueError(f"queries must be non-negative, got {queries}")
    eye = np.eye(num_amplitudes)
    none_gate = QueryGate((None,) * num_amplitudes)
    steps = [eye]
    for _ in range(queries):
        steps.extend([none_gate, eye])
    initial = np.zeros(num_amplitudes)
    initial[0] = 1.0
    measurement = (1,) + (0,) * (num_amplitudes - 1)
    return QQA(arity, num_amplitudes, initial, tuple(steps), measurement)


#: The built-in algorithms, by the name of the function of
#: :func:`qqasim.boolfun.named_function` that each computes exactly.  One whose
#: function takes an arity (see ``NAMED_FUNCTIONS``) takes it as its argument.
BUILTINS = {
    "equality3": equality3_algorithm,
    "pair_equality4": pair_equality4_algorithm,
    "constant1": lambda arity: constant_one_algorithm(num_amplitudes=1, arity=arity, queries=0),
}
