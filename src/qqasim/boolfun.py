"""Boolean functions as explicit truth tables.

A function of ``n`` variables is stored as all ``2**n`` output bits, indexed
by the input read as a binary number with the first variable as the most
significant bit.  The natural enumeration 000, 001, 010, ... therefore
matches row order everywhere (tables, CSV files, witness reporting).
"""
from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_ARITY = 16

#: The built-in functions of :func:`named_function`, each with whether it takes an arity.
NAMED_FUNCTIONS = {
    "equality3": False,
    "pair_equality4": False,
    "constant0": True,
    "constant1": True,
    "majority": True,
    "majority_even": True,
}


def bit_string(index: int, arity: int) -> str:
    """The ``arity``-bit input string for table row ``index``: the arity (:func:`_arity`,
    from 0) is checked first, then ``index``, an integer in ``0..2**arity - 1``."""
    arity = _arity(arity, 0)
    if not (_is_integer(index) and 0 <= index < 1 << arity):
        raise ValueError(f"index must be an integer in 0..{(1 << arity) - 1}, got {index!r}")
    return format(index, "b").zfill(arity) if arity else ""


def input_index(input_bits: str) -> int:
    """The row of an input string, first variable the high bit: :func:`bit_string`'s inverse."""
    return _check_input(input_bits, len(input_bits))


def all_inputs(arity: int) -> Iterator[str]:
    """All inputs in ascending order; the arity (:func:`_arity`, from 0) is checked on the call."""
    return (bit_string(i, arity) for i in range(1 << _arity(arity, 0)))


def _is_integer(value) -> bool:
    """The one integer rule: an ``int`` or a numpy integer, and never a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """``value`` as an ``int``, once it is an integer (:func:`_is_integer`)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _arity(value, least: int = 1, name: str = "arity") -> int:
    """The one arity rule: ``value`` as an ``int`` (:func:`_integer`) in ``least..MAX_ARITY``."""
    n = _integer(value, name)
    if not least <= n <= MAX_ARITY:
        raise ValueError(f"{name} must be between {least} and {MAX_ARITY}, got {n}")
    return n


def _check_input(input_bits: str, arity: int) -> int:
    """The row of ``input_bits``, once it is an ``arity``-bit string of 0s and 1s."""
    if len(input_bits) != arity or any(c not in "01" for c in input_bits):
        raise ValueError(f"expected a {arity}-bit input of 0s and 1s, got {input_bits!r}")
    return int(input_bits, 2) if input_bits else 0


@dataclass(frozen=True)
class TruthTable:
    """An ``arity``-variable Boolean function as a table of ``2**arity`` bits."""

    arity: int
    bits: bytes

    def __post_init__(self):
        object.__setattr__(self, "arity", _arity(self.arity))
        object.__setattr__(self, "bits", bytes(self.bits))  # the object itself if it is bytes
        if len(self.bits) != 1 << self.arity:
            raise ValueError(
                f"table for arity {self.arity} needs {1 << self.arity} bits, got {len(self.bits)}"
            )
        if self.bits.translate(None, b"\x00\x01"):
            raise ValueError("table entries must be 0 or 1")

    def evaluate(self, input_bits: str) -> int:
        """Value of the function on one input string."""
        return self.bits[_check_input(input_bits, self.arity)]

    def complement(self) -> "TruthTable":
        """The pointwise flipped function."""
        return TruthTable(self.arity, bytes(1 - b for b in self.bits))

    def accepting_inputs(self) -> list[str]:
        """All inputs mapped to 1, in ascending order."""
        return [bit_string(i, self.arity) for i, b in enumerate(self.bits) if b]

    def as_hex(self) -> str:
        """Table packed as hex, first row as the most significant bit."""
        padded = bytes(-len(self.bits) % 8) + self.bits  # zeros ahead, up to whole bytes
        packed = np.packbits(np.frombuffer(padded, dtype=np.uint8)).tobytes().hex()
        return packed[-((len(self.bits) + 3) // 4):]


def from_accepting(arity: int, accepting: Iterable[str]) -> TruthTable:
    """Build a table from the set of accepted input strings, once the arity is checked."""
    arity = _arity(arity)
    bits = bytearray(1 << arity)
    for s in accepting:
        bits[_check_input(s, arity)] = 1
    return TruthTable(arity, bytes(bits))


def named_function(name: str, n: int | None = None) -> TruthTable:
    """One of the built-in functions; ``n`` parameterizes the last four.

    ``equality3`` accepts the two all-equal 3-bit inputs; ``pair_equality4``
    accepts 4-bit inputs whose first and second pairs are each equal;
    ``majority`` (odd ``n``) and ``majority_even`` (even ``n``, ties rejected)
    accept inputs with strictly more ones than zeros.
    """
    if name not in NAMED_FUNCTIONS:
        expected = tuple(NAMED_FUNCTIONS)
        raise ValueError(f"unknown function name {name!r} (expected one of {expected})")
    if name == "equality3":
        return from_accepting(3, ["000", "111"])
    if name == "pair_equality4":
        return from_accepting(4, ["0000", "0011", "1100", "1111"])
    if n is None:
        raise ValueError(f"{name} needs an arity parameter")
    n = _arity(n)
    if name == "majority" and n % 2 == 0:
        raise ValueError("majority needs an odd number of arguments")
    if name == "majority_even" and n % 2 == 1:
        raise ValueError("majority_even needs an even number of arguments")
    if name.startswith("constant"):
        value = int(name[-1])
        return TruthTable(n, bytes([value]) * (1 << n))
    bits = bytes(1 if bin(i).count("1") > n // 2 else 0 for i in range(1 << n))
    return TruthTable(n, bits)


@dataclass(frozen=True)
class SensitivityResult:
    """Maximum number of value-flipping single-bit changes, with a witness."""

    value: int
    witness_input: str


def sensitivity(f: TruthTable) -> SensitivityResult:
    """Exhaustive-scan sensitivity; the witness is the smallest maximizing input."""
    n = f.arity
    bits = np.frombuffer(f.bits, dtype=np.uint8)
    index = np.arange(1 << n)
    counts = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        counts += bits != bits[index ^ (1 << (n - 1 - v))]
    witness = int(counts.argmax())  # argmax returns the first, i.e. smallest, index
    return SensitivityResult(int(counts[witness]), bit_string(witness, n))


def _true_parts(fs: Sequence[TruthTable]) -> tuple:
    """The arity of ``fs`` over concatenated variable blocks, the first function's block
    first, and how many of them accept each of its inputs, in row order: function i's table
    along axis i, summed in one broadcast (uint8 holds a count of at most MAX_ARITY)."""
    n = sum(f.arity for f in fs)
    if n > MAX_ARITY:
        raise ValueError(f"combined arity {n} exceeds the {MAX_ARITY}-variable limit")
    k = len(fs)
    counts = sum(np.frombuffer(f.bits, dtype=np.uint8).reshape((-1,) + (1,) * (k - 1 - i))
                 for i, f in enumerate(fs))
    return n, counts.reshape(-1)


def combine_disjoint(f1: TruthTable, f2: TruthTable, op: str) -> TruthTable:
    """``f1(X1) op f2(X2)`` over concatenated variable blocks.

    The combined function reads ``f1`` on its first ``f1.arity`` variables and
    ``f2`` on the remaining ones.
    """
    if op not in ("and", "or"):
        raise ValueError(f"op must be 'and' or 'or', got {op!r}")
    n, counts = _true_parts((f1, f2))
    return TruthTable(n, (counts >= (2 if op == "and" else 1)).tobytes())


def majority_compose(fs: Sequence[TruthTable], even: bool) -> TruthTable:
    """1 iff strictly more than half of the ``fs`` accept their variable blocks.

    ``even=True`` expects ``2k`` functions (ties rejected), ``even=False``
    expects ``2k+1``.  Blocks are concatenated as in :func:`combine_disjoint`.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    if even and len(fs) % 2 == 1:
        raise ValueError(f"even majority needs an even number of functions, got {len(fs)}")
    if not even and len(fs) % 2 == 0:
        raise ValueError(f"odd majority needs an odd number of functions, got {len(fs)}")
    n, counts = _true_parts(fs)
    return TruthTable(n, (counts > len(fs) // 2).tobytes())


CSV_HEADER = ["input", "value"]


@contextlib.contextmanager
def _opened(target, mode: str, newline: str | None = None):
    """``target`` itself if it is a file object, else the file at path ``target``
    opened in ``mode`` (``"r"`` or ``"w"``) and closed on leaving."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode, newline=newline) as handle:
            yield handle


def table_to_csv(f: TruthTable, destination) -> None:
    """Write ``input,value`` rows for every input in ascending order."""
    with _opened(destination, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for i, b in enumerate(f.bits):
            writer.writerow([bit_string(i, f.arity), b])


def table_from_csv(source) -> TruthTable:
    """Read a table written by :func:`table_to_csv`; every input must appear once."""
    with _opened(source, "r", newline="") as handle:
        return _read_csv(handle)


def _read_csv(handle) -> TruthTable:
    reader = csv.reader(handle)
    try:
        rows = list(reader)
    except csv.Error as error:  # such as a field over csv.field_size_limit()
        raise ValueError(f"row {reader.line_num}: {error}") from None
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)!r}")
    body = [r for r in rows[1:] if r]
    if not body:
        raise ValueError("no data rows")
    arity = _arity(len(body[0][0]), name="input arity")
    if len(body) != 1 << arity:
        raise ValueError(
            f"expected {1 << arity} rows of {arity}-bit inputs, got {len(body)} rows"
        )
    # The whole table is checked at once; only a bad one is walked row by
    # row, for the message that names its first bad row.
    if set(map(len, body)) == {2}:
        inputs, values = zip(*body)
        digits = np.frombuffer("".join(inputs).encode(), dtype=np.uint8) - ord("0")
        if (
            set(map(len, inputs)) == {arity}
            and digits.size == len(body) * arity  # no character beyond ASCII
            and digits.max() <= 1  # uint8: a character below "0" wraps around
            and set(values) <= {"0", "1"}
        ):
            indices = np.zeros(len(body), dtype=np.int64)
            for column in digits.reshape(-1, arity).T:  # the first variable is the high bit
                indices = 2 * indices + column
            bits = np.full(len(body), 2, dtype=np.uint8)
            bits[indices] = np.frombuffer("".join(values).encode(), dtype=np.uint8) - ord("0")
            if bits.max() <= 1:  # every input is there, so none is there twice
                return TruthTable(arity, bits.tobytes())
    seen = set()
    for row in body:
        if len(row) != 2:
            raise ValueError(f"malformed row {row!r}")
        input_bits, value = row
        idx = _check_input(input_bits, arity)
        if value not in ("0", "1"):
            raise ValueError(f"value must be 0 or 1 in row {row!r}")
        if idx in seen:
            raise ValueError(f"duplicate input {input_bits!r}")
        seen.add(idx)
