import math

import numpy as np
import pytest
from hypothesis import settings

from qqasim import simulator
from qqasim.algorithms import equality3_algorithm, pair_equality4_algorithm
from qqasim.boolfun import named_function
from qqasim.catalog import generate_all

S = 1.0 / math.sqrt(2.0)

# Property tests draw the same examples on every run, never time out on a
# slow machine, and keep the suite's running time bounded.
settings.register_profile(
    "qqasim", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("qqasim")

# Expected evolution of the equality-of-three algorithm on every input:
# state after the first unitary+query, after the second, final state, result.
EQUALITY3_TABLE = {
    "000": ([0.5, 0.5, 0.5, 0.5], [0.5, S, 0.0, 0.5], [1, 0, 0, 0], 1),
    "001": ([0.5, 0.5, 0.5, 0.5], [-0.5, S, 0.0, -0.5], [0, 0, 0, -1], 0),
    "010": ([0.5, -0.5, 0.5, -0.5], [0.5, 0.0, S, -0.5], [0, 0, 1, 0], 0),
    "011": ([0.5, -0.5, 0.5, -0.5], [-0.5, 0.0, S, 0.5], [0, -1, 0, 0], 0),
    "100": ([-0.5, 0.5, -0.5, 0.5], [-0.5, 0.0, S, 0.5], [0, -1, 0, 0], 0),
    "101": ([-0.5, 0.5, -0.5, 0.5], [0.5, 0.0, S, -0.5], [0, 0, 1, 0], 0),
    "110": ([-0.5, -0.5, -0.5, -0.5], [-0.5, S, 0.0, -0.5], [0, 0, 0, -1], 0),
    "111": ([-0.5, -0.5, -0.5, -0.5], [0.5, S, 0.0, 0.5], [1, 0, 0, 0], 1),
}

# Same layout for the pairwise-equality algorithm on all 16 inputs.
PAIR_EQUALITY4_TABLE = {
    "0000": ([S, S, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0], 1),
    "0001": ([S, S, 0.0, 0.0], [0.5, -0.5, 0.5, -0.5], [0, 1, 0, 0], 0),
    "0010": ([S, S, 0.0, 0.0], [-0.5, 0.5, -0.5, 0.5], [0, -1, 0, 0], 0),
    "0011": ([S, S, 0.0, 0.0], [-0.5, -0.5, -0.5, -0.5], [-1, 0, 0, 0], 1),
    "0100": ([S, -S, 0.0, 0.0], [0.5, 0.5, -0.5, -0.5], [0, 0, 1, 0], 0),
    "0101": ([S, -S, 0.0, 0.0], [0.5, -0.5, -0.5, 0.5], [0, 0, 0, 1], 0),
    "0110": ([S, -S, 0.0, 0.0], [-0.5, 0.5, 0.5, -0.5], [0, 0, 0, -1], 0),
    "0111": ([S, -S, 0.0, 0.0], [-0.5, -0.5, 0.5, 0.5], [0, 0, -1, 0], 0),
    "1000": ([-S, S, 0.0, 0.0], [-0.5, -0.5, 0.5, 0.5], [0, 0, -1, 0], 0),
    "1001": ([-S, S, 0.0, 0.0], [-0.5, 0.5, 0.5, -0.5], [0, 0, 0, -1], 0),
    "1010": ([-S, S, 0.0, 0.0], [0.5, -0.5, -0.5, 0.5], [0, 0, 0, 1], 0),
    "1011": ([-S, S, 0.0, 0.0], [0.5, 0.5, -0.5, -0.5], [0, 0, 1, 0], 0),
    "1100": ([-S, -S, 0.0, 0.0], [-0.5, -0.5, -0.5, -0.5], [-1, 0, 0, 0], 1),
    "1101": ([-S, -S, 0.0, 0.0], [-0.5, 0.5, -0.5, 0.5], [0, -1, 0, 0], 0),
    "1110": ([-S, -S, 0.0, 0.0], [0.5, -0.5, 0.5, -0.5], [0, 1, 0, 0], 0),
    "1111": ([-S, -S, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0], 1),
}


@pytest.fixture
def eq3():
    return equality3_algorithm()


@pytest.fixture
def pe4():
    return pair_equality4_algorithm()


@pytest.fixture
def f_eq3():
    return named_function("equality3")


@pytest.fixture
def f_pe4():
    return named_function("pair_equality4")


@pytest.fixture(scope="session")
def full_catalog():
    """All six generated families; shared because generation re-verifies everything."""
    return generate_all()


@pytest.fixture
def count_checks(monkeypatch):
    """Call it to start recording the size of each batch of gates checked for unitarity."""

    def start() -> list:
        batches = []
        check = simulator._unitarity_errors

        def counting(stack):
            batches.append(len(stack))
            return check(stack)

        monkeypatch.setattr(simulator, "_unitarity_errors", counting)
        return batches

    return start


#: Half a 4x4 Hadamard matrix: every entry is exactly +1/2 or -1/2.
QUARTER_GATE = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


@pytest.fixture
def quarters():
    """Build a 1-variable, 4-amplitude algorithm: ``queries`` no-op queries, then ``QUARTER_GATE``.

    From e0 every output has probability exactly 1/4 on both inputs, so each
    answer is exact in float and can sit exactly on a tolerance bound: with
    outputs (1, 1, 1, 0), P(1) is 3/4.
    """

    def build(measurement, initial=(1, 0, 0, 0), queries=1):
        steps = (simulator.QueryGate((None,) * 4),) * queries + (QUARTER_GATE,)
        return simulator.QQA(1, 4, initial, steps, measurement)

    return build
