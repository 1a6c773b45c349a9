import csv
import io
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qqasim.boolfun import (
    CSV_HEADER,
    MAX_ARITY,
    NAMED_FUNCTIONS,
    TruthTable,
    _check_input,
    all_inputs,
    combine_disjoint,
    from_accepting,
    majority_compose,
    input_index,
    named_function,
    sensitivity,
    table_from_csv,
    table_to_csv,
)


def _permute_table(f: TruthTable, sigma) -> TruthTable:
    """g with g(x) = f(x[sigma[0]], x[sigma[1]], ...), built by reindexing."""
    bits = bytearray(len(f.bits))
    for i, x in enumerate(all_inputs(f.arity)):
        bits[i] = f.evaluate("".join(x[s] for s in sigma))
    return TruthTable(f.arity, bytes(bits))


class TestNamedFunctions:
    def test_equality3_accepting_set(self, f_eq3):
        assert f_eq3.accepting_inputs() == ["000", "111"]

    def test_pair_equality4_accepting_set(self, f_pe4):
        assert f_pe4.accepting_inputs() == ["0000", "0011", "1100", "1111"]

    def test_eval_rows(self, f_eq3, f_pe4):
        assert f_eq3.evaluate("111") == 1
        assert f_eq3.evaluate("010") == 0
        assert f_pe4.evaluate("0011") == 1

    def test_eval_length_mismatch(self, f_eq3):
        with pytest.raises(ValueError):
            f_eq3.evaluate("0101")

    def test_majority_even_rejects_ties(self):
        f = named_function("majority_even", 4)
        assert f.evaluate("1100") == 0
        assert f.evaluate("1101") == 1

    def test_majority_odd(self):
        f = named_function("majority", 3)
        assert f.accepting_inputs() == ["011", "101", "110", "111"]

    def test_constants(self):
        assert named_function("constant0", 2).accepting_inputs() == []
        assert len(named_function("constant1", 2).accepting_inputs()) == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown function"):
            named_function("parity")

    @pytest.mark.parametrize("name", sorted(NAMED_FUNCTIONS))
    def test_arity_parameter_as_the_table_says(self, name):
        if NAMED_FUNCTIONS[name]:
            with pytest.raises(ValueError, match="needs an arity parameter"):
                named_function(name)
            assert named_function(name, 2 if name == "majority_even" else 3).arity > 1
        else:
            assert named_function(name) == named_function(name, 5)  # the arity is fixed

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match=f"^arity must be between 1 and {MAX_ARITY}, got 64$"):
            named_function("constant1", 64)  # before a table of 2**64 entries is made
        with pytest.raises(ValueError):
            named_function("majority", 4)
        with pytest.raises(ValueError):
            named_function("majority_even", 3)
        with pytest.raises(ValueError):
            named_function("constant1")


class TestArity:
    @pytest.mark.parametrize("arity", [True, False, 3.0, 1.5, "1", None, np.float64(1.0)])
    def test_table_arity_must_be_an_integer(self, arity):
        message = f"arity must be an integer, got {arity!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TruthTable(arity, b"\x00\x01")

    @pytest.mark.parametrize("name", ["constant0", "constant1", "majority", "majority_even"])
    @pytest.mark.parametrize("n", [True, 3.0])
    def test_named_function_arity_must_be_an_integer(self, name, n):
        with pytest.raises(ValueError, match=f"^arity must be an integer, got {n!r}$"):
            named_function(name, n)

    def test_numpy_integer_arity_is_stored_as_int(self):
        f = TruthTable(np.int64(1), b"\x00\x01")
        assert type(f.arity) is int
        assert f == TruthTable(1, b"\x00\x01") and hash(f) == hash(TruthTable(1, b"\x00\x01"))
        assert type(named_function("majority", np.uint8(3)).arity) is int


class TestSensitivity:
    def test_equality3(self, f_eq3):
        result = sensitivity(f_eq3)
        assert result.value == 3
        assert result.witness_input == "000"

    def test_pair_equality4(self, f_pe4):
        assert sensitivity(f_pe4).value == 4

    def test_constant_is_insensitive(self):
        assert sensitivity(named_function("constant1", 3)).value == 0

    def test_double_equality_conjunction(self, f_eq3):
        f = combine_disjoint(f_eq3, f_eq3, "and")
        assert sensitivity(f).value == 6

    def test_twelve_variable_majority_composition(self, f_eq3):
        f = majority_compose([f_eq3] * 4, even=True)
        assert sensitivity(f).value == 9

    def test_witness_actually_achieves_value(self, f_pe4):
        result = sensitivity(f_pe4)
        x = result.witness_input
        flips = sum(
            f_pe4.evaluate(x) != f_pe4.evaluate(x[:i] + str(1 - int(x[i])) + x[i + 1:])
            for i in range(f_pe4.arity)
        )
        assert flips == result.value


class TestComplement:
    def test_involution(self, f_pe4):
        assert f_pe4.complement().complement() == f_pe4

    def test_constants_swap(self):
        assert named_function("constant0", 3).complement() == named_function("constant1", 3)

    def test_flipped_row(self, f_eq3):
        assert f_eq3.complement().evaluate("010") == 1

    @given(st.integers(1, 4), st.integers(0, 2**16 - 1))
    def test_sensitivity_invariant(self, arity, seed):
        bits = bytes((seed >> i) & 1 for i in range(1 << arity))
        f = TruthTable(arity, bits)
        assert sensitivity(f.complement()).value == sensitivity(f).value


class TestEquality:
    def test_reflexive(self, f_eq3):
        assert f_eq3 == named_function("equality3")

    def test_symmetric_function_survives_permutation(self, f_eq3):
        for sigma in itertools.permutations(range(3)):
            assert _permute_table(f_eq3, sigma) == f_eq3

    def test_complement_differs(self, f_eq3):
        assert f_eq3 != f_eq3.complement()

    @given(st.permutations(range(4)))
    def test_sensitivity_invariant_under_variable_permutation(self, sigma):
        f = named_function("pair_equality4")
        assert sensitivity(_permute_table(f, sigma)).value == sensitivity(f).value


class TestCombineDisjoint:
    def test_and_of_two_equality3(self, f_eq3):
        f = combine_disjoint(f_eq3, f_eq3, "and")
        assert f.arity == 6
        assert f.accepting_inputs() == ["000000", "000111", "111000", "111111"]

    def test_or_of_two_pair_equality4(self, f_pe4):
        f = combine_disjoint(f_pe4, f_pe4, "or")
        for x in all_inputs(8):
            assert f.evaluate(x) == (f_pe4.evaluate(x[:4]) | f_pe4.evaluate(x[4:]))

    def test_and_with_constant_one_extends(self, f_eq3):
        f = combine_disjoint(f_eq3, named_function("constant1", 2), "and")
        for x in all_inputs(5):
            assert f.evaluate(x) == f_eq3.evaluate(x[:3])

    def test_arity_cap(self):
        big = named_function("constant1", 9)
        with pytest.raises(ValueError, match="exceeds"):
            combine_disjoint(big, big, "and")

    def test_unknown_op(self, f_eq3):
        with pytest.raises(ValueError):
            combine_disjoint(f_eq3, f_eq3, "xor")

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 255),
        st.integers(0, 255),
        st.sampled_from(["and", "or"]),
    )
    def test_pointwise_agreement(self, n1, n2, seed1, seed2, op):
        f1 = TruthTable(n1, bytes((seed1 >> i) & 1 for i in range(1 << n1)))
        f2 = TruthTable(n2, bytes((seed2 >> i) & 1 for i in range(1 << n2)))
        combined = combine_disjoint(f1, f2, op)
        for a in all_inputs(n1):
            for b in all_inputs(n2):
                v1, v2 = f1.evaluate(a), f2.evaluate(b)
                expected = (v1 & v2) if op == "and" else (v1 | v2)
                assert combined.evaluate(a + b) == expected


class TestMajorityCompose:
    def test_four_equality_blocks(self, f_eq3):
        f = majority_compose([f_eq3] * 4, even=True)
        assert f.arity == 12
        for x in all_inputs(12):
            b = sum(f_eq3.evaluate(x[3 * k:3 * k + 3]) for k in range(4))
            assert f.evaluate(x) == (1 if b >= 3 else 0)

    def test_constant_slot_reduces_to_odd_majority(self, f_eq3):
        with_filler = majority_compose(
            [f_eq3, f_eq3, f_eq3, named_function("constant1", 1)], even=True
        )
        odd = majority_compose([f_eq3] * 3, even=False)
        for x in all_inputs(9):
            for pad in "01":
                assert with_filler.evaluate(x + pad) == odd.evaluate(x)

    @pytest.mark.parametrize(
        "arities, even", [((2, 3), True), ((1, 3, 2), False), ((3, 1, 2, 3), True)]
    )
    def test_matches_brute_force_count_on_random_tables(self, arities, even):
        rng = random.Random(len(arities))
        starts = list(itertools.accumulate(arities, initial=0))
        for _ in range(5):
            fs = [TruthTable(a, bytes(rng.randint(0, 1) for _ in range(1 << a))) for a in arities]
            expected = bytearray()
            for x in all_inputs(sum(arities)):
                count = sum(f.evaluate(x[s:s + f.arity]) for f, s in zip(fs, starts))
                expected.append(1 if 2 * count > len(fs) else 0)
            assert majority_compose(fs, even=even).bits == bytes(expected)

    def test_exact_tie_rejected(self):
        single = named_function("constant1", 1)
        f = majority_compose([single, single.complement()], even=True)
        assert f.accepting_inputs() == []

    def test_no_functions_rejected(self):
        with pytest.raises(ValueError, match="^need at least one function$"):
            majority_compose([], even=True)

    def test_combined_arity_above_the_limit_rejected(self):
        six = named_function("constant1", 6)
        with pytest.raises(ValueError, match=f"^combined arity 18 exceeds the {MAX_ARITY}-variable"):
            majority_compose([six] * 3, even=False)

    def test_parity_validation(self, f_eq3):
        with pytest.raises(ValueError, match="even"):
            majority_compose([f_eq3] * 3, even=True)
        with pytest.raises(ValueError, match="odd"):
            majority_compose([f_eq3] * 4, even=False)


class TestCsv:
    def test_round_trip(self, f_pe4):
        buffer = io.StringIO()
        table_to_csv(f_pe4, buffer)
        assert buffer.getvalue().splitlines()[0] == "input,value"
        assert "0011,1" in buffer.getvalue()
        buffer.seek(0)
        assert table_from_csv(buffer) == f_pe4

    def test_file_round_trip(self, tmp_path, f_eq3):
        path = tmp_path / "eq3.csv"
        table_to_csv(f_eq3, path)
        assert table_from_csv(path) == f_eq3

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            table_from_csv(io.StringIO("in,out\n0,1\n"))

    def test_rejects_missing_rows(self):
        with pytest.raises(ValueError, match="rows"):
            table_from_csv(io.StringIO("input,value\n00,1\n01,0\n"))

    def test_an_over_long_field_names_its_row(self):
        text = "input,value\n0,1\n" + "1" * 200_000 + ",0\n"
        with pytest.raises(ValueError, match=r"^row 3: field larger than field limit \(131072\)$"):
            table_from_csv(io.StringIO(text))

    def test_rejects_duplicates(self):
        text = "input,value\n0,1\n0,0\n"
        with pytest.raises(ValueError, match="duplicate"):
            table_from_csv(io.StringIO(text))


def _row_by_row(handle) -> TruthTable:
    """The reference of ``table_from_csv``: every row checked in a loop of its own."""
    rows = list(csv.reader(handle))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)!r}")
    body = [r for r in rows[1:] if r]
    if not body:
        raise ValueError("no data rows")
    arity = len(body[0][0])
    if not 1 <= arity <= MAX_ARITY or len(body) != 1 << arity:
        raise ValueError(
            f"expected {1 << arity} rows of {arity}-bit inputs, got {len(body)} rows"
        )
    seen = {}
    for row in body:
        if len(row) != 2:
            raise ValueError(f"malformed row {row!r}")
        input_bits, value = row
        _check_input(input_bits, arity)
        if value not in ("0", "1"):
            raise ValueError(f"value must be 0 or 1 in row {row!r}")
        idx = input_index(input_bits)
        if idx in seen:
            raise ValueError(f"duplicate input {input_bits!r}")
        seen[idx] = int(value)
    return TruthTable(arity, bytes(seen[i] for i in range(1 << arity)))


def _outcome(read, text):
    try:
        return read(io.StringIO(text, newline=""))
    except ValueError as error:
        return type(error), str(error)


def _csv_rows(f: TruthTable) -> list:
    buffer = io.StringIO()
    table_to_csv(f, buffer)
    return buffer.getvalue().splitlines()


def _table_cases():
    """Valid and broken tables; the second half of a broken one is fine, so
    the first bad row, not only the first bad table, has to be named."""
    f = named_function("majority_even", 8)
    rows = _csv_rows(f)
    body = rows[1:]
    shuffled = body[:]
    random.Random(0).shuffle(shuffled)

    def edited(k, row):
        return [rows[0], *body[:k], row, *body[k + 1:]]

    return {
        "in order": rows,
        "shuffled": [rows[0], *shuffled],
        "blank lines": [rows[0], "", *body[:9], "", *body[9:]],
        "quoted": [rows[0], *(f'"{line.split(",")[0]}",{line.split(",")[1]}' for line in body)],
        "arity 1": _csv_rows(named_function("constant1", 1)),
        "arity 12": _csv_rows(named_function("majority_even", 12)),
        "duplicate input": edited(200, body[17]),
        "shuffled duplicate": [rows[0], *shuffled[:90], shuffled[3], *shuffled[91:]],
        "bad value": edited(100, body[100][:-1] + "2"),
        "empty value": edited(100, body[100][:-1]),
        "value with a space": edited(100, body[100][:-1] + " 1"),
        "short row": edited(60, body[60].split(",")[0]),
        "long row": edited(60, body[60] + ",1"),
        "short input": edited(30, body[30][1:]),
        "long input": edited(30, "0" + body[30]),
        "bad character": edited(40, "0120" + body[40][4:]),
        "non-ASCII digit": edited(40, "\u0661" + body[40][1:]),
        "character below 0": edited(40, "/" + body[40][1:]),
        "two bad rows": edited(5, "0000000x,1")[:150] + ["00000011,7"] + body[150:],
        "header only": [rows[0]],
        "header and blank lines": [rows[0], "", ""],
    }


class TestCsvAgainstTheRowLoop:
    @pytest.mark.parametrize("case", sorted(_table_cases()))
    def test_same_table_or_message(self, case):
        text = "\n".join(_table_cases()[case]) + "\n"
        expected = _outcome(_row_by_row, text)
        assert _outcome(table_from_csv, text) == expected
        valid = ("in order", "shuffled", "blank lines", "quoted", "arity 1", "arity 12")
        assert isinstance(expected, TruthTable) == (case in valid)


class TestHex:
    def test_equality3_packs_msb_first(self, f_eq3):
        assert f_eq3.as_hex() == "81"

    def test_width_scales_with_arity(self):
        assert named_function("constant1", 4).as_hex() == "ffff"

    @pytest.mark.parametrize("arity", range(1, MAX_ARITY + 1))
    def test_matches_the_table_read_as_one_binary_number(self, arity):
        # Arities 1 and 2 fill less than a byte: the packing must not shift their digits.
        rng = random.Random(arity)
        for bits in ([rng.getrandbits(1) for _ in range(1 << arity)], [1] * (1 << arity)):
            value, digits = int("".join(map(str, bits)), 2), -(-len(bits) // 4)
            assert TruthTable(arity, bytes(bits)).as_hex() == format(value, f"0{digits}x")


def test_from_accepting_matches_named(f_eq3):
    assert from_accepting(3, ["111", "000"]) == f_eq3


@pytest.mark.parametrize("bits", [[0, 1], bytearray(b"\x00\x01"), memoryview(b"\x00\x01")])
def test_table_bits_are_stored_as_bytes(bits):
    f = TruthTable(1, bits)
    assert type(f.bits) is bytes and f == TruthTable(1, b"\x00\x01")


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, b"\x01")
    with pytest.raises(ValueError):
        TruthTable(2, b"\x00\x01")
    with pytest.raises(ValueError):
        TruthTable(1, b"\x00\x02")
