"""Transformations turning one exact algorithm into another.

Each transform returns a new algorithm; none of them adds a query, so
complexity is preserved.  Inputs are validated against the precondition each
transform needs for the output to stay exact; every refusal, worded by
:func:`qqasim.simulator._require`, names the first input, in row order, that
witnesses it.  The one checker takes the source's gates as checked
(:func:`qqasim.simulator._assembled`): relabelling the outputs or the
variables shares its read-only gate stack and checks no gate, and the sign
flip copies the stack, in its own dtype, and checks only the gate it adds.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import _check_permutation
from .simulator import (
    QQA,
    QueryGate,
    StructuralProperty,
    _EXACT,
    _assembled,
    _require,
    computed_function,
    verify,  # noqa: F401  unused here; perfbench's wrapper test looks it up on this module
)


def _relabelled(a: QQA, steps: tuple, measurement: tuple) -> QQA:
    """``a`` with new query gates or a new measurement, on ``a``'s own gates."""
    return _assembled(a.arity, a.initial, a._gates, len(a._gates), steps, measurement)


def invert_outputs(a: QQA) -> QQA:
    """Flip every output's assigned value; the result computes the complement.

    Only valid for exact algorithms: inverting a bounded-error algorithm
    would silently turn success probability p into 1 - p.
    """
    computed_function(a)  # fails on an input where neither value wins
    _require(a, "output inversion requires an exact algorithm", _EXACT)
    return _relabelled(a, a.steps, tuple(1 - v for v in a.measurement))


def permute_outputs(a: QQA, sigma: Sequence[int]) -> QQA:
    """Move the value assigned to output ``i`` to output ``sigma[i]``.

    Requires the certain-outcome discipline: the state before measurement is
    always a single signed basis vector, so any relabeling of output values
    yields an exact algorithm for some (re-derivable) function.
    """
    sigma = _check_permutation(sigma, a.amplitudes, "output permutation")
    need = "output permutation requires all probability on one basis state for every input"
    _require(a, need, StructuralProperty.CERTAIN_OUTCOME)
    values = list(a.measurement)
    for i, j in enumerate(sigma):
        values[j] = a.measurement[i]
    return _relabelled(a, a.steps, tuple(values))


def permute_variables(a: QQA, sigma: Sequence[int]) -> QQA:
    """Relabel queried variables: every assignment ``k`` becomes ``sigma[k]``.

    The result computes g with g(x_0, ..) = f(x_{sigma[0]}, x_{sigma[1]}, ..).
    """
    sigma = _check_permutation(sigma, a.arity, "variable permutation")
    steps = tuple(
        QueryGate(tuple(None if v is None else sigma[v] for v in step.assignments))
        if isinstance(step, QueryGate)
        else step
        for step in a.steps
    )
    return _relabelled(a, steps, a.measurement)


def normalize_accepting_sign(a: QQA) -> QQA:
    """Append a sign flip at the accepting output, turning {0, -1} into {0, +1}.

    Requires the accepting amplitude to be 0 or -1 on every input.  The added
    gate is diagonal ±1, so the computed function and query count are
    untouched while the stricter {0, +1} discipline now holds.
    """
    need = "sign normalization requires an accepting amplitude in {0, -1}"
    _require(a, need, StructuralProperty.ACCEPT_MINUS_ONE)
    acc = a.accepting_outputs()[0]
    gates = np.concatenate([a._gates, np.eye(a.amplitudes, dtype=a._gates.dtype)[np.newaxis]])
    gates[-1, acc, acc] = -1.0
    return _assembled(a.arity, a.initial, gates, len(a._gates), a.steps + (None,), a.measurement)
