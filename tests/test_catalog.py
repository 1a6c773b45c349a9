import csv
import hashlib
import io
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

import qqasim
from qqasim import catalog, constructors
from qqasim.boolfun import TruthTable, named_function, sensitivity
from qqasim.catalog import (
    SET_NAMES,
    CatalogEntry,
    FunctionSet,
    _verified,
    export_csv,
    generate_set,
)
from qqasim.cli import main
from qqasim.constructors import (
    ConstructionResult,
    and_construct,
    majority3_construct,
    majority_even4_construct,
    or_construct,
)
from qqasim.simulator import StructuralProperty, check_property, computed_function, verify
from qqasim.transforms import invert_outputs, permute_outputs, permute_variables

EXPECTED_SIZES = {
    "qfunc3": 8,
    "qfunc4": 24,
    "and": 16,
    "or": 256,
    "maj_even4": 256,
    "majority3": 64,
}
EXPECTED_CANDIDATES = {
    "qfunc3": 48,
    "qfunc4": 192,
    "and": 16,
    "or": 256,
    "maj_even4": 256,
    "majority3": 64,
}
EXPECTED_ARITIES = {
    "qfunc3": (3,),
    "qfunc4": (4,),
    "and": (6,),
    "or": (6, 7, 8),
    "maj_even4": (12,),
    "majority3": (9,),
}
EXPECTED_PROBABILITY = {
    "qfunc3": 1.0,
    "qfunc4": 1.0,
    "and": 0.75,
    "or": 0.625,
    "maj_even4": 0.5625,
    "majority3": 0.5625,
}


@pytest.mark.parametrize("name", SET_NAMES)
def test_set_shape(full_catalog, name):
    s = full_catalog[name]
    assert len(s.entries) == EXPECTED_SIZES[name]
    assert s.candidates == EXPECTED_CANDIDATES[name]
    assert s.arities == EXPECTED_ARITIES[name]
    assert s.queries == 2
    assert s.guaranteed_p == EXPECTED_PROBABILITY[name]


@pytest.mark.parametrize("name", SET_NAMES)
def test_entries_pairwise_distinct(full_catalog, name):
    tables = {(e.function.arity, e.function.bits) for e in full_catalog[name].entries}
    assert len(tables) == EXPECTED_SIZES[name]


def test_qfunc3_contains_base_function_and_complement(full_catalog):
    functions = [e.function for e in full_catalog["qfunc3"].entries]
    assert named_function("equality3") in functions
    assert named_function("equality3").complement() in functions


def test_qfunc4_contains_base_function(full_catalog):
    functions = [e.function for e in full_catalog["qfunc4"].entries]
    assert named_function("pair_equality4") in functions


def test_exact_sets_reverify(full_catalog):
    for name in ("qfunc3", "qfunc4"):
        for entry in full_catalog[name].entries:
            report = verify(entry.algorithm, entry.function)
            assert report.exact and report.queries == 2


def test_eligibility_pools_are_derived_counts(full_catalog):
    q3 = full_catalog["qfunc3"].entries
    q4 = full_catalog["qfunc4"].entries
    mixing = [
        e for e in q3
        if check_property(e.algorithm, StructuralProperty.ACCEPT_PLUS_ONE)
        or check_property(e.algorithm, StructuralProperty.ACCEPT_MINUS_ONE)
    ]
    routing3 = [e for e in q3 if check_property(e.algorithm, StructuralProperty.ACCEPT_SIGNED_UNIT)]
    routing4 = [e for e in q4 if check_property(e.algorithm, StructuralProperty.ACCEPT_SIGNED_UNIT)]
    assert len(mixing) == 4
    assert len(routing3) == 4
    assert len(routing4) == 12


def test_summary_totals(full_catalog):
    sets = full_catalog.values()
    assert [len(s.entries) for s in sets] == [8, 24, 16, 256, 256, 64]
    assert sum(len(s.entries) for s in sets) == 624
    assert sum(s.candidates for s in sets) == 832
    labels = [s.probability_label for s in sets]
    assert labels == ["1", "1", "3/4", "5/8", "9/16", "9/16"]


def test_generation_is_deterministic():
    first = generate_set("qfunc3")
    second = generate_set("qfunc3")
    assert [e.function for e in first.entries] == [e.function for e in second.entries]
    assert [e.provenance for e in first.entries] == [e.provenance for e in second.entries]


@pytest.mark.parametrize("name", SET_NAMES)
def test_combined_set_alone_matches_the_full_catalog(full_catalog, name):
    # ``or`` alone builds both of its base sets when its pool first asks for them.
    alone = generate_set(name)
    shared = full_catalog[name]
    assert [e.function for e in alone.entries] == [e.function for e in shared.entries]
    assert [e.provenance for e in alone.entries] == [e.provenance for e in shared.entries]
    fields = ("candidates", "arities", "queries", "guaranteed_p")
    assert [getattr(alone, f) for f in fields] == [getattr(shared, f) for f in fields]


def test_floor_failure_names_the_witness(eq3, f_eq3):
    bits = bytearray(f_eq3.bits)
    bits[5] = 1
    wrong = CatalogEntry(TruthTable(3, bytes(bits)), eq3, "equality3")
    with pytest.raises(RuntimeError, match="on input 101, below the 0.75 floor"):
        _verified("and", 0.75, [wrong], lambda entry, table: entry)


def test_an_empty_family_is_reported_as_such(monkeypatch):
    monkeypatch.setattr(catalog, "_pool", lambda entries, row: [])
    with pytest.raises(RuntimeError, match=r"^and: no candidates$"):
        generate_set("and")


@pytest.fixture
def verified(monkeypatch):
    """The (arity, bits) of every function the catalog verifies, in order."""
    functions = []

    def counting(a, f, *args, **kwargs):
        functions.append((f.arity, f.bits))
        return verify(a, f, *args, **kwargs)

    monkeypatch.setattr(catalog, "verify", counting)
    return functions


@pytest.mark.parametrize("name, candidates, distinct", [("qfunc3", 48, 8), ("qfunc4", 192, 24)])
def test_each_distinct_function_is_verified_once(verified, name, candidates, distinct):
    s = generate_set(name)
    assert s.candidates == candidates
    assert len(verified) == len(set(verified)) == len(s.entries) == distinct


def test_the_catalog_command_verifies_each_distinct_function_once(verified):
    result = CliRunner().invoke(main, ["catalog", "--set", "all"])
    assert result.exit_code == 0
    assert result.output.endswith("distinct functions: 624\nTotal 832\n")
    assert len(verified) == len(set(verified)) == 624


@pytest.mark.parametrize(
    "name, combine, parts",
    [
        ("and", and_construct, 2),
        ("or", or_construct, 2),
        ("maj_even4", majority_even4_construct, 4),
        ("majority3", majority3_construct, 3),
    ],
)
def test_a_combined_sets_floor_is_its_combiners(full_catalog, eq3, name, combine, parts):
    assert full_catalog[name].guaranteed_p == combine(*[eq3] * parts).guaranteed_p
    row = catalog._COMBINED[name]
    assert (row.function, row.parts) == (combine.__name__, parts)
    assert float(row.floor) == combine(*[eq3] * parts).guaranteed_p
    assert full_catalog[name].probability_label == str(row.floor)  # full_catalog: generate_all()


def test_inconsistent_query_counts_rejected(monkeypatch, quarters):
    """A combiner whose results differ in query count; the two compute different functions."""
    first = [ConstructionResult(quarters((1, 1, 1, 0)), TruthTable(1, b"\x01\x01"), 0.75, 1)]
    later = ConstructionResult(
        quarters((1, 0, 0, 0), queries=2), TruthTable(1, b"\x00\x00"), 0.75, 2
    )
    monkeypatch.setattr(constructors, "and_construct",
                        lambda *parts: first.pop() if first else later)
    with pytest.raises(RuntimeError, match=r"^and: inconsistent query counts \{1, 2\}$"):
        generate_set("and")


def test_unknown_set_rejected():
    with pytest.raises(ValueError, match="unknown set"):
        generate_set("qfunc5")


def test_csv_export(full_catalog, tmp_path):
    buffer = io.StringIO()
    export_csv({"qfunc3": full_catalog["qfunc3"]}, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "set,arity,queries,probability,truth_table_hex,provenance"
    assert len(lines) == 1 + 8
    assert any(",81," in line for line in lines[1:])  # the base equality table

    path = tmp_path / "catalog.csv"
    export_csv(full_catalog, path)
    content = path.read_text().splitlines()
    assert len(content) == 1 + 624


def test_generate_all_returns_every_set_and_the_golden_csv(full_catalog):
    assert tuple(full_catalog) == SET_NAMES
    assert SET_NAMES[2:] == tuple(row.set_name for row in constructors._COMBINERS)
    # ``full_catalog`` is ``generate_all()``.
    assert all(isinstance(s, FunctionSet) for s in full_catalog.values())
    buffer = io.StringIO()
    export_csv(full_catalog, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == "e343079ffb64c6be6fd319b47afc39c0c8ac67dc5c7424fb8993903ca0b31361"


#: A base-set tag: ``base[acc=a,vars=s]`` or ``base[acc=a,vars=s,inv]``.
_LEAF_TAG = re.compile(r"(\w+)\[acc=(\d+),vars=(\d+)(,inv)?\]")

#: The public function of each tag head: a base algorithm, or a combiner by its set name.
_TAG_HEADS = {
    "equality3": qqasim.equality3_algorithm,
    "pair_equality4": qqasim.pair_equality4_algorithm,
    "and": qqasim.and_construct,
    "or": qqasim.or_construct,
    "maj_even4": qqasim.majority_even4_construct,
    "majority3": qqasim.majority3_construct,
}


def _rebuilt(tag: str, leaves: dict):
    """The algorithm a provenance tag describes, rebuilt through the public API alone.

    ``vars=s`` is the 1-based sigma of ``permute_variables``; ``acc=a`` swaps
    output 1 and output a; ``inv`` is ``invert_outputs``; ``kind(t1,t2,...)``
    is that combiner on the parts the tags t1, t2, ... describe.  ``leaves``
    keeps each base-set tag's algorithm, which many rows share.
    """
    leaf = _LEAF_TAG.fullmatch(tag)
    if leaf is None:
        kind, inner = re.fullmatch(r"(\w+)\((.*)\)", tag).groups()
        parts = [m.group(0) for m in _LEAF_TAG.finditer(inner)]
        assert ",".join(parts) == inner, tag
        return _TAG_HEADS[kind](*(_rebuilt(part, leaves) for part in parts)).algorithm
    if tag not in leaves:
        base, acc, sigma, inverted = leaf.groups()
        a = qqasim.permute_variables(_TAG_HEADS[base](), [int(v) - 1 for v in sigma])
        swap = list(range(a.amplitudes))
        swap[0], swap[int(acc) - 1] = swap[int(acc) - 1], swap[0]
        a = qqasim.permute_outputs(a, swap)
        leaves[tag] = qqasim.invert_outputs(a) if inverted else a
    return leaves[tag]


def test_every_row_rebuilds_from_its_provenance(full_catalog):
    buffer = io.StringIO()
    export_csv(full_catalog, buffer)
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert len(rows) == 624
    leaves = {}
    for row in rows:
        a = _rebuilt(row["provenance"], leaves)
        f = qqasim.computed_function(a)
        assert (a.arity, a.query_count, f.as_hex()) == (
            int(row["arity"]), int(row["queries"]), row["truth_table_hex"]), row["provenance"]
        floor = float(Fraction(row["probability"]))
        assert qqasim.verify(a, f).worst_case_p >= floor - qqasim.NORM_TOL, row["provenance"]



def _degree(values: np.ndarray) -> int:
    """The degree of the multilinear polynomial that takes ``values`` on the inputs in row
    order, by the Moebius transform: the coefficient of a set S of variables is the sum,
    over the inputs T that set only variables of S, of (-1)^(|S| - |T|) times T's value.
    Row i stands for the set of i's one bits, so a coefficient's degree is their count."""
    coefficients, ones = np.array(values, dtype=float), np.zeros(1, dtype=int)
    while ones.size < coefficients.size:  # one variable at a time, the low bit first
        pairs = coefficients.reshape(-1, 2, ones.size)  # a view: axis 1 is the variable
        pairs[:, 1] -= pairs[:, 0]
        ones = np.concatenate([ones, ones + 1])  # the one bits of each row so far
    nonzero = np.abs(coefficients) > 1e-9  # above float noise, below 1/16
    return int(ones[nonzero].max(initial=0))


def test_the_paper_claims_certified_by_the_polynomial_method(full_catalog):
    """Checks of the catalog's claims that do not rest on how the simulator counts.

    A T-query algorithm's P(1) has degree at most 2T (Beals, Buhrman, Cleve,
    Mosca and de Wolf, arXiv:quant-ph/9802049). A deterministic decision tree
    needs at least s(f) queries, and every row's s(f) exceeds its 2 quantum
    queries. And the base families are the transforms' whole closure.
    """
    for s in full_catalog.values():
        for e in s.entries:
            success = verify(e.algorithm, e.function).success
            p_one = np.where(np.frombuffer(e.function.bits, dtype=np.uint8), success, 1 - success)
            assert _degree(p_one) <= 2 * e.algorithm.query_count, e.provenance
            assert sensitivity(e.function).value >= 3 > e.algorithm.query_count, e.provenance
    for name in ("qfunc3", "qfunc4"):
        functions = {e.function for e in full_catalog[name].entries}
        for a in (e.algorithm for e in full_catalog[name].entries):
            transformed = itertools.chain(
                [invert_outputs(a)],
                (permute_variables(a, s) for s in itertools.permutations(range(a.arity))),
                (permute_outputs(a, s) for s in itertools.permutations(range(a.amplitudes))),
            )
            assert {computed_function(t) for t in transformed} <= functions, name
