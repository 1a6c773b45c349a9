"""Every public function that takes sizes, indices, bits or arrays either meets its
contract or refuses the value with a ``ValueError`` that names the argument; each
combiner also takes a part that is not an algorithm with a ``TypeError``.

Each case draws good values and malformed ones (booleans, numeric strings, NaN,
inf, negatives, out-of-range values, ragged or wrongly shaped arrays).  Every
drawn size is bounded, so that no draw makes more than a table of ``2**20``
entries, whatever the function does with it.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqasim import (
    MAX_ARITY,
    QQA,
    QueryGate,
    TruthTable,
    all_inputs,
    bit_string,
    block_diag,
    computed_function,
    constant_one_algorithm,
    equality3_algorithm,
    from_accepting,
    input_index,
    invert_outputs,
    is_unitary,
    named_function,
    pair_equality4_algorithm,
    permutation_matrix,
    permute_outputs,
    permute_variables,
    run,
    run_all,
    trace,
    verify,
)
from qqasim import constructors

#: Integer-like values: integers in and out of range, numpy integers, booleans,
#: floats (NaN and inf among them), numeric strings and ``None``.
_SIZES = st.one_of(
    st.integers(-3, 20),
    st.integers(-3, 20).map(np.int64),
    st.booleans(),
    st.sampled_from([2.0, 1.5, math.nan, math.inf, -math.inf, np.float64(3.0)]),
    st.sampled_from(["1", "3", " 2", "-1"]),
    st.none(),
)
#: Input strings: of 0s and 1s, up to beyond ``MAX_ARITY`` variables, or with a sign,
#: a space, an underscore or a letter that ``int(bits, 2)`` would read or refuse.
_BITS = st.text("01", max_size=MAX_ARITY + 4) | st.text("01 +-_x", max_size=6)
#: Permutations of up to 5 entries, and lists of up to 5 integer-like values.
_SIGMAS = (st.lists(_SIZES, max_size=5)
           | st.integers(0, 5).flatmap(lambda n: st.permutations(range(n))))
#: Matrix entries: numbers, NaN and inf, booleans and numeric strings.
_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.5, -1.0, 1j, math.nan, math.inf]),
    st.booleans(),
    st.sampled_from(["1", "0"]),
)
#: Square lists, ragged lists and numpy arrays of any dimension up to 3, entries up to 4 a side.
_MATRICES = st.one_of(
    st.integers(0, 4).flatmap(
        lambda m: st.lists(st.lists(_ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m)),
    st.lists(st.lists(_ENTRIES, max_size=4), max_size=4),
    st.integers(0, 3).flatmap(lambda d: st.lists(st.integers(1, 4), min_size=d, max_size=d)).map(
        lambda shape: np.ones(shape)),
)


#: Each case as a test parameter: a function of ``draw`` that asserts its contract on the
#: values it draws, and the argument names, a regular expression, that a refusal may give.
_CASES = []


def _case(names: str):
    def register(check):
        _CASES.append(pytest.param(check, names, id=check.__name__.strip("_")))
        return check
    return register


@_case("arity|index")
def _bit_string(draw):
    index, arity = draw(_SIZES), draw(_SIZES)
    bits = bit_string(index, arity)
    assert len(bits) == arity and input_index(bits) == index


@_case("input")
def _input_index(draw):
    bits = draw(_BITS)
    index = input_index(bits)
    assert set(bits) <= {"0", "1"} and index == int(bits or "0", 2)
    if len(bits) <= MAX_ARITY:
        assert bit_string(index, len(bits)) == bits


@_case("arity")
def _all_inputs(draw):
    arity = draw(_SIZES)
    inputs = all_inputs(arity)  # refused on the call, before anything is made
    first = list(itertools.islice(inputs, 4))
    assert first == [bit_string(i, arity) for i in range(min(4, 1 << arity))]


@_case("arity|input")
def _from_accepting(draw):
    arity, accepting = draw(_SIZES), draw(st.lists(_BITS, max_size=4))
    f = from_accepting(arity, accepting)
    assert f.arity == arity and sum(f.bits) == len(set(accepting))
    assert all(f.evaluate(bits) == 1 for bits in accepting)


@_case("arity|table")
def _truth_table(draw):
    arity, size = draw(_SIZES), 1 << draw(st.integers(0, 5))
    bits = bytes(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    f = TruthTable(arity, bits)
    assert f.arity == arity and f.bits == bits


@_case("arity|majority")
def _named_function(draw):
    name = draw(st.sampled_from(["constant0", "constant1", "majority", "majority_even"]))
    arity = draw(_SIZES)
    f = named_function(name, arity)
    assert f.arity == arity and len(f.bits) == 1 << arity


@_case("input")
def _evaluate(draw):
    bits = draw(_BITS)
    assert named_function("equality3").evaluate(bits) == (bits in ("000", "111"))


@_case("amplitude|arity|queries")
def _constant_one_algorithm(draw):
    amplitudes, arity, queries = draw(_SIZES), draw(_SIZES), draw(_SIZES)
    a = constant_one_algorithm(amplitudes, arity, queries)
    assert (a.amplitudes, a.arity, a.query_count) == (amplitudes, arity, queries)


@_case("input")
def _run(draw):
    bits = draw(_BITS)
    _, probabilities = run(constant_one_algorithm(2, 3, 1), bits)
    assert probabilities == {0: 0.0, 1: 1.0} and len(bits) == 3


@_case("input")
def _trace(draw):
    bits = draw(_BITS | st.integers(0, 15).map(lambda i: bit_string(i, 4)))
    a = pair_equality4_algorithm()
    last, row = trace(a, bits).states[-1], run_all(a)[input_index(bits)]
    assert last.dtype == row.dtype and last.tobytes() == row.tobytes()


@_case("variable permutation")
def _permute_variables(draw):
    sigma, a = draw(_SIGMAS), pair_equality4_algorithm()
    f, g = computed_function(a), computed_function(permute_variables(a, sigma))
    assert sorted(sigma) == list(range(4))
    assert all(g.evaluate(x) == f.evaluate("".join(x[k] for k in sigma))
               for x in all_inputs(4))


@_case("output permutation")
def _permute_outputs(draw):
    sigma, a = draw(_SIGMAS), pair_equality4_algorithm()
    b = permute_outputs(a, sigma)
    assert sorted(sigma) == list(range(4))
    assert all(b.measurement[j] == a.measurement[i] for i, j in enumerate(sigma))


@_case("sigma")
def _permutation_matrix(draw):
    sigma = draw(_SIGMAS)
    matrix = permutation_matrix(sigma)
    assert sorted(sigma) == list(range(len(sigma)))
    assert all(matrix[i, j] == 1 for i, j in enumerate(sigma)) and matrix.sum() == len(sigma)


@_case("matrix")
def _is_unitary(draw):
    assert type(is_unitary(draw(_MATRICES))) is bool


@_case("block")
def _block_diag(draw):
    blocks = draw(st.lists(_MATRICES, max_size=3))
    assert block_diag(blocks).shape == (sum(map(len, blocks)),) * 2


#: A drawn field of ``QQA`` on pair_equality4's others: the values drawn, the step a gate or
#: query assignments replace, and the names a refusal may give.
_FIELDS = {
    "arity": (_SIZES, None, "arity"),
    "amplitudes": (_SIZES, None, r"amplitudes|initial state must have shape"),
    "initial": (st.lists(_ENTRIES, max_size=5) | _MATRICES, None, "initial"),
    "unitary": (_MATRICES, 2, r"steps\[2\]\.unitary"),
    "query": (st.lists(_SIZES, max_size=5), 3, r"steps\[3\]\.query"),
    "measurement": (st.lists(_SIZES, max_size=5) | _SIZES, None, "measurement"),
}


def _qqa_case(field: str):
    values, at, names = _FIELDS[field]

    def check(draw):
        a, value = pair_equality4_algorithm(), draw(values)
        fields = {name: getattr(a, name) for name in ("arity", "amplitudes", "initial", "steps",
                                                      "measurement")}
        if at is not None:
            step = QueryGate(value) if field == "query" else value
            fields["steps"] = a.steps[:at] + (step,) + a.steps[at + 1:]
        else:
            fields[field] = value
        b = QQA(**fields)
        stored = getattr(b, field) if at is None else b.steps[at]
        stored = stored.assignments if field == "query" else stored
        assert np.array_equal(stored, value)
        if not isinstance(stored, np.ndarray):  # sizes, variables and output values
            assert {type(v) for v in np.ravel(np.array(stored, dtype=object))} <= {int, type(None)}

    _CASES.append(pytest.param(check, names, id=f"QQA-{field}"))


for _field in _FIELDS:
    _qqa_case(_field)


#: Parts a combiner may be given: the built-ins, and values that are not algorithms.
_PARTS = (equality3_algorithm(), pair_equality4_algorithm(), constant_one_algorithm(2, 1, 1))
_NOT_ALGORITHMS = (None, "builtin:equality3", 3, np.eye(4), named_function("equality3"))


def _part(draw):
    """A built-in, one of its transforms, or a value that is not an algorithm."""
    kind = draw(st.sampled_from(["built-in", "outputs", "variables", "inverted", "other"]))
    if kind == "other":
        return draw(st.sampled_from(_NOT_ALGORITHMS))
    a = draw(st.sampled_from(_PARTS))
    if kind == "outputs":
        return permute_outputs(a, draw(st.permutations(range(a.amplitudes))))
    if kind == "variables":
        return permute_variables(a, draw(st.permutations(range(a.arity))))
    return invert_outputs(a) if kind == "inverted" else a


def _combiner_case(row):
    def check(draw):
        parts = [_part(draw) for _ in range(row.parts)]
        try:
            result = getattr(constructors, row.function)(*parts)
        except TypeError as error:
            labels = (["first input", "second input"] if row.parts == 2
                      else [f"input {i + 1}" for i in range(row.parts)])
            label, a = next((label, a) for label, a in zip(labels, parts) if not isinstance(a, QQA))
            assert str(error) == f"{label}: expected a QQA, got {type(a).__name__}"
            return
        assert result.queries == max(a.query_count for a in parts)
        assert result.target.arity == sum(a.arity for a in parts)
        assert verify(result.algorithm, result.target).worst_case_p >= result.guaranteed_p - 1e-9

    _CASES.append(pytest.param(check, "input", id=f"combiner-{row.method}"))


for _row in constructors._COMBINERS:
    _combiner_case(_row)


@pytest.mark.parametrize("case, names", _CASES)
@settings(max_examples=60)  # keeps the twenty-five cases to about 3.6 s
@given(data=st.data())
def test_the_contract_holds_or_a_value_error_names_the_argument(case, names, data):
    with np.errstate(all="ignore"):  # a NaN or inf entry is a value to refuse, not a warning
        try:
            case(data.draw)
        except ValueError as error:
            assert re.search(names, str(error)), str(error)
