import copy
import json
import math
import os
import re
import stat
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qqasim import boolfun, catalog, linalg, serialize, simulator
from qqasim.boolfun import table_from_csv, table_to_csv
from qqasim.catalog import SET_NAMES, FunctionSet, export_csv
from qqasim.constructors import or_construct
from qqasim.serialize import from_document, load, save, to_document
from qqasim.simulator import QQA, QueryGate, run_all, verify


class TestRoundTrip:
    def test_equality3_still_exact(self, tmp_path, eq3, f_eq3):
        path = tmp_path / "eq3.json"
        save(eq3, path, name="equality3")
        loaded = load(path)
        report = verify(loaded, f_eq3)
        assert report.exact and report.queries == 2

    def test_load_from_a_file_object(self, tmp_path, eq3):
        path = tmp_path / "eq3.json"
        save(eq3, path)
        with open(path) as handle:
            loaded = load(handle)
            assert not handle.closed  # a file object is read, not closed
        assert loaded._gates.tobytes() == load(path)._gates.tobytes() == eq3._gates.tobytes()
        assert loaded.steps[1].assignments == eq3.steps[1].assignments

    def test_document_round_trip_preserves_structure(self, eq3):
        loaded = from_document(to_document(eq3))
        assert loaded.arity == eq3.arity
        assert loaded.measurement == eq3.measurement
        for a, b in zip(loaded.steps, eq3.steps):
            if isinstance(a, QueryGate):
                assert a.assignments == b.assignments
            else:
                assert np.array_equal(a, b)

    def test_sixteen_amplitude_worst_case_preserved(self, tmp_path, pe4):
        result = or_construct(pe4, pe4)
        before = verify(result.algorithm, result.target).worst_case_p
        path = tmp_path / "or.json"
        save(result.algorithm, path, provenance="or(pair_equality4, pair_equality4)")
        after = verify(load(path), result.target).worst_case_p
        assert abs(after - before) <= 1e-12

    def test_every_composite_verifies_the_same_after_a_round_trip(self, full_catalog, tmp_path):
        composites = [e for name in SET_NAMES[2:] for e in full_catalog[name].entries]
        assert len(composites) == 592
        path = tmp_path / "a.json"
        for k, entry in enumerate(composites):
            a = entry.algorithm
            # Every eighth goes through a file; the others are rebuilt from
            # their fields, which a round trip keeps bit for bit.
            if k % 8 == 0:
                save(a, path)
                copy = load(path)
            else:
                copy = QQA(a.arity, a.amplitudes, a.initial, a.steps, a.measurement)
            built, loaded = verify(a, entry.function), verify(copy, entry.function)
            assert np.array_equal(built.success, loaded.success)
            assert built.witness == loaded.witness

    def test_query_variables_are_one_based_with_null(self, eq3):
        doc = to_document(eq3)
        queries = [step["query"] for step in doc["steps"] if "query" in step]
        assert queries == [[1, 2, 1, 2], [3, 1, 1, 3]]
        doc2 = to_document(or_construct_fixture_free())
        nulls = [v for step in doc2["steps"] if "query" in step for v in step["query"]]
        assert None in nulls

    def test_metadata_stored(self, eq3):
        doc = to_document(eq3, name="eq", provenance="builtin")
        assert doc["name"] == "eq" and doc["provenance"] == "builtin"


def or_construct_fixture_free():
    from qqasim.algorithms import pair_equality4_algorithm

    return or_construct(pair_equality4_algorithm(), pair_equality4_algorithm()).algorithm


class TestValidation:
    def _document(self, eq3):
        return to_document(eq3)

    @pytest.mark.parametrize("text", ["[]", "null", "7", '"format_version"'])
    def test_document_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^document must be a JSON object$"):
            load(path)

    def test_deeply_nested_json_is_a_value_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ValueError, match="^JSON nested too deeply to decode$"):
            load(path)

    def test_missing_field_named(self, eq3):
        doc = self._document(eq3)
        del doc["arity"]
        with pytest.raises(ValueError, match="arity"):
            from_document(doc)

    def test_unknown_version(self, eq3):
        doc = self._document(eq3)
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            from_document(doc)

    def test_non_unitary_step_names_index(self, eq3):
        doc = self._document(eq3)
        doc["steps"][2]["unitary"][0][0] = [5.0, 0.0]
        with pytest.raises(ValueError, match=r"steps\[2\].unitary"):
            from_document(doc)

    def test_bad_matrix_shape(self, eq3):
        doc = self._document(eq3)
        doc["steps"][0]["unitary"] = doc["steps"][0]["unitary"][:2]
        with pytest.raises(ValueError, match=r"steps\[0\].unitary"):
            from_document(doc)

    def test_bad_query_index(self, eq3):
        doc = self._document(eq3)
        doc["steps"][1]["query"][0] = 7
        with pytest.raises(ValueError, match=r"steps\[1\].query\[0\]"):
            from_document(doc)

    def test_bad_initial_norm(self, eq3):
        doc = self._document(eq3)
        doc["initial"][0] = [2.0, 0.0]
        with pytest.raises(ValueError, match="initial"):
            from_document(doc)

    def test_non_finite_initial(self, eq3):
        doc = self._document(eq3)
        doc["initial"][0] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="initial: state is not unit-norm"):
            from_document(doc)

    def test_bad_measurement(self, eq3):
        doc = self._document(eq3)
        doc["measurement"][0] = 3
        with pytest.raises(ValueError, match="measurement"):
            from_document(doc)

    @pytest.mark.parametrize("where", ["initial", "unitary"])
    def test_boolean_amplitude_rejected(self, eq3, where):
        doc = self._document(eq3)
        if where == "initial":
            doc["initial"][0] = [True, False]
            field = r"initial\[0\]"
        else:
            doc["steps"][0]["unitary"][0][0] = [True, False]
            field = r"steps\[0\].unitary\[0\]\[0\]"
        with pytest.raises(ValueError, match=field):
            from_document(doc)

    def test_boolean_measurement_rejected(self, eq3):
        doc = self._document(eq3)
        doc["measurement"][0] = True
        with pytest.raises(ValueError, match="measurement"):
            from_document(doc)

    def test_each_gate_checked_once(self, eq3, monkeypatch):
        checked = []
        batch, single = linalg._unitarity_errors, linalg.is_unitary

        def counting_batch(stack):
            checked.extend(stack)
            return batch(stack)

        def counting_single(matrix, tol=linalg.UNITARY_TOL):
            checked.append(matrix)
            return single(matrix, tol)

        for module in (serialize, simulator):  # wherever a loader could look them up
            monkeypatch.setattr(module, "_unitarity_errors", counting_batch, raising=False)
            monkeypatch.setattr(module, "is_unitary", counting_single, raising=False)
        from_document(self._document(eq3))
        assert len(checked) == len(eq3.steps) - eq3.query_count

    def test_step_with_both_kinds(self, eq3):
        doc = self._document(eq3)
        doc["steps"][0]["query"] = [1, 1, 1, 1]
        with pytest.raises(ValueError, match=r"steps\[0\]"):
            from_document(doc)


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path, eq3):
        path = tmp_path / "a.json"
        save(eq3, path)
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_failed_write_removes_its_temp_file(self, tmp_path, eq3):
        (tmp_path / "a.json").mkdir()  # the final rename onto a directory fails
        with pytest.raises(IsADirectoryError):
            save(eq3, tmp_path / "a.json")
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        assert list((tmp_path / "a.json").iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_every_written_file_has_the_mode_of_the_umask(self, tmp_path, eq3, f_eq3, umask):
        writers = {
            "a.json": lambda path: save(eq3, path),
            "table.csv": lambda path: table_to_csv(f_eq3, path),
            "catalog.csv": lambda path: export_csv({}, path),
        }
        previous = os.umask(umask)
        try:
            for name, write in writers.items():
                write(tmp_path / name)
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {name: 0o666 & ~umask for name in writers}

    @pytest.mark.parametrize("kept", [0o600, 0o640], ids=["600", "640"])
    def test_a_rewritten_file_keeps_its_mode(self, tmp_path, eq3, f_eq3, kept):
        path = tmp_path / "table.csv"
        path.write_text("old\n")
        path.chmod(kept)
        previous = os.umask(0o022)
        try:
            table_to_csv(f_eq3, path)
            save(eq3, tmp_path / "table.csv")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == kept
        assert load(path)._gates.tobytes() == eq3._gates.tobytes()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_link_is_written_through(self, tmp_path, f_eq3):
        (tmp_path / "data").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "data" / "table.csv")
        table_to_csv(f_eq3, tmp_path / "link.csv")
        assert (tmp_path / "link.csv").is_symlink()
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["table.csv"]
        assert table_from_csv(tmp_path / "data" / "table.csv") == f_eq3

    @pytest.mark.parametrize("through", ["fifo", "fd-link"])
    def test_a_device_is_written_in_place(self, tmp_path, f_eq3, through):
        if through == "fifo":
            path = tmp_path / "pipe"
            os.mkfifo(path)
            reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # so opening it to write does not block
            writer = None
        else:  # what /dev/stdout names when the output is a pipe
            if not os.path.isdir("/proc/self/fd"):
                pytest.skip("no /proc/self/fd on this system")
            reader, writer = os.pipe()
            path = f"/proc/self/fd/{writer}"
        try:
            table_to_csv(f_eq3, path)
            written = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
            if writer is not None:
                os.close(writer)
        assert [p.name for p in tmp_path.iterdir()] == (["pipe"] if through == "fifo" else [])
        assert written.splitlines()[:2] == ["input,value", "000,1"]

    @pytest.mark.parametrize("existing", [None, "old\n"], ids=["new", "existing"])
    def test_a_directory_that_takes_no_new_file(self, tmp_path, f_eq3, monkeypatch, existing):
        def opening(file, mode="r", **kwargs):
            if mode == "x":
                raise PermissionError(13, "Permission denied", file)
            return open(file, mode, **kwargs)

        path = tmp_path / "table.csv"
        if existing is not None:
            path.write_text(existing)
        monkeypatch.setattr(boolfun, "open", opening, raising=False)
        if existing is None:
            with pytest.raises(PermissionError):
                table_to_csv(f_eq3, path)
            assert list(tmp_path.iterdir()) == []
        else:
            table_to_csv(f_eq3, path)  # written in place, as open would write it
            assert table_from_csv(path) == f_eq3

    @pytest.mark.parametrize("existing", [None, "kept\n"], ids=["new", "existing"])
    def test_a_failed_csv_write_leaves_no_file(self, tmp_path, existing):
        path = tmp_path / "catalog.csv"
        if existing is not None:
            path.write_text(existing)

        def families():
            yield FunctionSet("qfunc3", (), (3,), 2, 1.0, 1), [(3, "81", "equality3")]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="^interrupted$"):
            catalog._write_csv(families(), path)
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else [path.name])
        assert existing is None or path.read_text() == existing

    def test_json_is_plain_and_loadable(self, tmp_path, eq3):
        path = tmp_path / "a.json"
        save(eq3, path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["format_version"] == 1
        assert from_document(doc).arity == 3


# References that work one entry at a time: a saved document must be
# json.dumps of _entry_document, and from_document must decode as
# _pair_loop_from_document does, errors included.


def _entry_document(a, name=None, provenance=None):
    """``to_document`` built entry by entry: every pair from ``z.real`` and ``z.imag``."""
    steps = []
    for step in a.steps:
        if isinstance(step, QueryGate):
            steps.append({"query": [None if v is None else v + 1 for v in step.assignments]})
        else:
            steps.append({"unitary": [[[z.real, z.imag] for z in row] for row in step]})
    doc = {
        "format_version": 1,
        "arity": a.arity,
        "amplitudes": a.amplitudes,
        "initial": [[z.real, z.imag] for z in a.initial],
        "steps": steps,
        "measurement": list(a.measurement),
    }
    if name is not None:
        doc["name"] = name
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def _json_dump_bytes(a, name=None, provenance=None) -> bytes:
    """What ``json.dump(..., indent=1)`` writes for the document, with the final newline."""
    return (json.dumps(_entry_document(a, name, provenance), indent=1) + "\n").encode()


def _pair_by_pair(value, field):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"{field}: expected a [re, im] pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError as error:
        raise ValueError(f"{field}: {error}") from None


def _listed(value, field):
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected list, got {type(value).__name__}")
    return value


def _pair_loop_from_document(doc):
    """``from_document`` decoding one ``[re, im]`` pair at a time."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    for field in FIELDS:
        if field not in doc:
            raise ValueError(f"missing field {field!r}")
    version, arity, amplitudes, raw_initial, raw_steps, measurement = (doc[f] for f in FIELDS)
    if type(version) is not int or version != 1:
        raise ValueError(f"format_version: unsupported version {version!r}")
    initial = [
        _pair_by_pair(v, f"initial[{i}]") for i, v in enumerate(_listed(raw_initial, "initial"))
    ]
    steps = []
    for k, raw in enumerate(_listed(raw_steps, "steps")):
        where = f"steps[{k}]"
        if not isinstance(raw, dict) or len(raw) != 1:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")
        if "query" in raw:
            steps.append(QueryGate(
                v - 1 if type(v) is int else v for v in _listed(raw["query"], f"{where}.query")
            ))
        elif "unitary" in raw:
            steps.append([
                [_pair_by_pair(entry, f"{where}.unitary[{i}][{j}]")
                 for j, entry in enumerate(_listed(row, f"{where}.unitary[{i}]"))]
                for i, row in enumerate(_listed(raw["unitary"], f"{where}.unitary"))
            ])
        else:
            raise ValueError(f"{where}: expected exactly one of 'unitary' or 'query'")
    return QQA(arity, amplitudes, initial, tuple(steps), measurement)


def _decoded(decode, doc):
    """Every field of the decoded algorithm, as bytes and types; or the error raised."""
    try:
        a = decode(doc)
    except Exception as error:  # the type is part of what must agree
        return type(error), str(error)
    steps = [
        (type(s).__name__, tuple((type(v), v) for v in s.assignments)) if isinstance(s, QueryGate)
        else (s.dtype, s.shape, s.tobytes())
        for s in a.steps
    ]
    return (a.arity, a.amplitudes, a.initial.dtype, a.initial.tobytes(), steps,
            tuple((type(v), v) for v in a.measurement))


def _as_integers(text: str):
    """The document in JSON ``text``, every integer-valued float written as an integer."""
    return json.loads(re.sub(r"(-?\d+)\.0(?=\D)", r"\1", text))


def _signed_zeros():
    """An algorithm whose initial state and gates hold -0.0 parts."""
    initial = [complex(-0.0, -0.0), complex(1.0, -0.0)]
    swap = np.array([[complex(-0.0, 0.0), 1.0], [complex(1.0, -0.0), -0.0]])
    return QQA(1, 2, initial, (swap, QueryGate((0, None)), swap), (1, 0))


def _phase(eq3):
    phase = np.diag(np.exp(1j * np.linspace(0.3, 2.1, 4)))
    return QQA(3, 4, eq3.initial * 1j, eq3.steps[:2] + (phase,) + eq3.steps[2:], eq3.measurement)


#: Documents made by hand, each one edit of the equality3 document.
_HAND_MADE = {
    "integer entries": lambda doc: doc.update(_as_integers(json.dumps(doc))),
    "float-sized huge integer": lambda doc: doc["initial"].__setitem__(0, [10**20, 0]),
    "2**64 + 1": lambda doc: doc["steps"][0]["unitary"][1].__setitem__(2, [0, 2**64 + 1]),
    "huge integer in initial": lambda doc: doc["initial"].__setitem__(0, [10**400, 0]),
    "huge integer in a gate": lambda doc: doc["steps"][2]["unitary"][3].__setitem__(
        1, [0.5, -10**400]),
    "boolean": lambda doc: doc["initial"].__setitem__(1, [0.5, False]),
    "string number": lambda doc: doc["initial"].__setitem__(1, ["0.5", 0.0]),
    "pair of three": lambda doc: doc["steps"][0]["unitary"][0].__setitem__(0, [0.5, 0, 0]),
    "pair of one": lambda doc: doc["initial"].__setitem__(3, [0.5]),
    "null pair": lambda doc: doc["steps"][0]["unitary"][2].__setitem__(1, None),
    "pair as object": lambda doc: doc["initial"].__setitem__(2, {"re": 0.5, "im": 0}),
    "nested pair": lambda doc: doc["initial"].__setitem__(2, [[0.5, 0.0]]),
    "every pair of three": lambda doc: doc.__setitem__(
        "initial", [pair + [0.0] for pair in doc["initial"]]),
    "every pair of one": lambda doc: doc["steps"][0].__setitem__(
        "unitary", [[pair[:1] for pair in row] for row in doc["steps"][0]["unitary"]]),
    "every pair of four": lambda doc: doc["steps"][0].__setitem__(
        "unitary", [[pair * 2 for pair in row] for row in doc["steps"][0]["unitary"]]),
    "tuple row": lambda doc: doc["steps"][2]["unitary"].__setitem__(
        0, tuple(doc["steps"][2]["unitary"][0])),
    "tuple pairs": lambda doc: doc.__setitem__("initial", [tuple(p) for p in doc["initial"]]),
    "ragged rows": lambda doc: doc["steps"][0]["unitary"][1].pop(),
    "row not a list": lambda doc: doc["steps"][0]["unitary"].__setitem__(1, 7),
    "empty gate": lambda doc: doc["steps"][0].__setitem__("unitary", []),
    "empty rows": lambda doc: doc["steps"][0].__setitem__("unitary", [[], [], [], []]),
    "three rows": lambda doc: doc["steps"][0]["unitary"].pop(),
    "empty initial": lambda doc: doc.__setitem__("initial", []),
    "initial not a list": lambda doc: doc.__setitem__("initial", "0.5"),
    "non-finite": lambda doc: doc["steps"][2]["unitary"][0].__setitem__(0, [math.nan, 0]),
    "non-unitary": lambda doc: doc["steps"][2]["unitary"][0].__setitem__(0, [5.0, 0.0]),
    "late bad pair before an early bad gate": lambda doc: (
        doc["steps"][0]["unitary"][0].__setitem__(0, [5.0, 0.0]),
        doc["steps"][4]["unitary"][0].__setitem__(0, [True, 0.0]),
    ),
}


class TestWriterAgainstJson:
    def test_every_catalog_document(self, full_catalog, tmp_path):
        path = tmp_path / "a.json"
        entries = [e for s in full_catalog.values() for e in s.entries]
        assert len(entries) == 624
        for entry in entries:
            a = entry.algorithm
            assert to_document(a, provenance=entry.provenance) == _entry_document(
                a, provenance=entry.provenance
            )
            save(a, path, provenance=entry.provenance)
            assert path.read_bytes() == _json_dump_bytes(a, provenance=entry.provenance), entry.provenance

    @pytest.mark.parametrize("which", ["no steps", "signed zeros", "complex", "numpy variables"])
    @pytest.mark.parametrize("name, provenance", [
        (None, None),
        ('say "hi"', 'back\\slash, tab\t, newline\n'),
        ("\u00e9t\u00e9 \u2713 \U0001d49c", "\x00\x1f\x7f \u2028"),
        ("", "plain"),
    ])
    def test_edge_documents(self, tmp_path, eq3, which, name, provenance):
        a = {
            "no steps": lambda: QQA(0, 2, [1, 0], (), (1, 0)),
            "signed zeros": _signed_zeros,
            "complex": lambda: _phase(eq3),
            "numpy variables": lambda: QQA(
                2, 2, [1, 0], (QueryGate((np.int64(1), np.uint8(0))),), (np.int64(1), 0)
            ),
        }[which]()
        path = tmp_path / "a.json"
        written = save(a, path, name=name, provenance=provenance)
        assert path.read_bytes() == _json_dump_bytes(a, name, provenance)
        assert json.loads(json.dumps(written, default=serialize._pair_lists)) == to_document(
            a, name, provenance
        )
        doc = json.loads(path.read_text())
        assert _decoded(from_document, doc) == _decoded(_pair_loop_from_document, doc)


@pytest.mark.parametrize("value", [
    {"exact": True, "worst_case_p": 0.75, "queries": 3, "per_input": {"01": 1.0, "10": 0.5},
     "failures": ['expected "exact"', "café ✓"]},
    [{"input": "1", "states": [], "probabilities": {}}, None, False, -0.0, 10**30, [[], [[]]]],
    {"nan": math.nan, "inf": [math.inf, -math.inf], "nested": {"a": {"b": [1, 2.5]}},
     'say "hi"\n': "\u00e9t\u00e9 \U0001d49c", "\u2713": "\x00\x7f"},
    (1, (2, "three")),
    "plain",
    {},
])
def test_json_text_is_json_dumps(value):
    assert serialize._json_text(value) == json.dumps(value, indent=1)


def test_json_text_writes_complex_arrays_as_pairs():
    states = np.array([[complex(-0.0, 1.0), 0.5], [1e-300, complex(2.0, -3.25)]])
    value = {"rows": [{"states": states, "initial": states[0]}]}
    nested = {"rows": [{"states": serialize._pair_lists(states),
                        "initial": serialize._pair_lists(states[0])}]}
    assert serialize._json_text(value) == json.dumps(nested, indent=1)


@pytest.mark.parametrize("items", [[], [{"states": np.eye(2) * 1j}], [None, "a", [1, {"b": []}]]])
def test_json_chunks_join_to_json_text(items):
    assert "".join(serialize._json_chunks(iter(items))) == serialize._json_text(items)


class TestDecoderAgainstThePairLoop:
    def test_every_catalog_document(self, full_catalog):
        entries = [e for s in full_catalog.values() for e in s.entries]
        assert len(entries) == 624
        for k, entry in enumerate(entries):
            text = json.dumps(to_document(entry.algorithm))
            # Every fourth, every shape among them, also with integer entries.
            versions = (json.loads(text), _as_integers(text)) if k % 4 == 0 else (json.loads(text),)
            for doc in versions:
                assert _decoded(from_document, doc) == _decoded(_pair_loop_from_document, doc)

    @pytest.mark.parametrize("case", sorted(_HAND_MADE))
    def test_hand_made_documents(self, eq3, case):
        doc = json.loads(json.dumps(to_document(eq3)))
        _HAND_MADE[case](doc)
        assert _decoded(from_document, doc) == _decoded(_pair_loop_from_document, doc)

    @pytest.mark.parametrize("field, where", [
        ("initial[0]", lambda doc: doc["initial"][0]),
        ("steps[2].unitary[3][1]", lambda doc: doc["steps"][2]["unitary"][3][1]),
    ])
    def test_integer_too_large_for_a_float_names_its_field(self, tmp_path, eq3, field, where):
        doc = to_document(eq3)
        where(doc)[1] = -10**400
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{field}: int too large to convert to float"


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "a.json"


class TestRoundTripProperty:
    @given(st.sampled_from(SET_NAMES), st.integers(0, 255))
    def test_fields_and_states_survive(self, full_catalog, round_trip_path, name, index):
        entries = full_catalog[name].entries
        entry = entries[index % len(entries)]  # a transform variant or a composite
        a = entry.algorithm
        save(a, round_trip_path, provenance=entry.provenance)
        loaded = load(round_trip_path)
        assert (loaded.arity, loaded.amplitudes) == (a.arity, a.amplitudes)
        assert loaded.measurement == a.measurement
        assert loaded.initial.tobytes() == a.initial.tobytes()
        assert len(loaded.steps) == len(a.steps)
        for mine, theirs in zip(loaded.steps, a.steps):
            if isinstance(theirs, QueryGate):
                assert mine.assignments == theirs.assignments
            else:
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        states, expected = run_all(loaded), run_all(a)
        assert states.dtype == expected.dtype and states.tobytes() == expected.tobytes()


FIELDS = ("format_version", "arity", "amplitudes", "initial", "steps", "measurement")
_NOT_A_NUMBER_OR_LIST = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_MALFORMED_ENTRY = st.one_of(
    _NOT_A_NUMBER_OR_LIST, st.integers(), st.lists(st.floats(), max_size=1)
)

# Each corruption changes one field of a valid document so that it is no
# longer valid, and returns the name of the top-level field it broke;
# ``draw`` draws from a hypothesis strategy.


def _pick(draw, items):
    return items[draw(st.integers(0, len(items) - 1))]


def _unitary(doc, draw):
    return _pick(draw, [step["unitary"] for step in doc["steps"] if "unitary" in step])


def _query(doc, draw):
    return _pick(draw, [step["query"] for step in doc["steps"] if "query" in step])


def _wrong_type(doc, draw):
    field = draw(st.sampled_from(FIELDS))
    if field in ("format_version", "arity", "amplitudes"):
        wrong = st.one_of(_NOT_A_NUMBER_OR_LIST, st.floats(), st.lists(st.integers(), max_size=2))
    else:
        wrong = st.one_of(_NOT_A_NUMBER_OR_LIST, st.floats(), st.integers())
    doc[field] = draw(wrong)
    return field


def _missing_field(doc, draw):
    field = draw(st.sampled_from(FIELDS))
    del doc[field]
    return field


def _non_finite(doc, draw):
    field = draw(st.sampled_from(["initial", "steps"]))
    if field == "initial":
        pair = _pick(draw, doc["initial"])
    else:
        pair = _pick(draw, _pick(draw, _unitary(doc, draw)))
    pair[draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return field


def _boolean(doc, draw):
    flag = draw(st.booleans())
    where = draw(st.sampled_from(["header", "initial", "unitary", "measurement", "query"]))
    if where == "header":
        field = draw(st.sampled_from(FIELDS[:3]))
        doc[field] = flag
        return field
    if where == "initial":
        _pick(draw, doc["initial"])[draw(st.integers(0, 1))] = flag
    elif where == "unitary":
        _pick(draw, _pick(draw, _unitary(doc, draw)))[draw(st.integers(0, 1))] = flag
    else:
        values = doc["measurement"] if where == "measurement" else _query(doc, draw)
        values[_pick(draw, [j for j, v in enumerate(values) if v is not None])] = flag
    return where if where in FIELDS else "steps"


def _ragged(doc, draw):
    unitary = _unitary(doc, draw)
    listed = [
        ("steps", unitary),
        ("steps", _pick(draw, unitary)),
        ("initial", doc["initial"]),
        ("measurement", doc["measurement"]),
        ("steps", _query(doc, draw)),
    ]
    field, target = _pick(draw, listed)
    if draw(st.booleans()):
        del target[draw(st.integers(0, len(target) - 1))]
    else:
        target.append(target[0])
    return field


def _non_unitary(doc, draw):
    unitary = _unitary(doc, draw)
    if draw(st.booleans()):
        _pick(draw, unitary)[draw(st.integers(0, len(unitary) - 1))] = [2.0, 0.0]  # row norm > 1
    else:
        factor = draw(st.floats(1.01, 100.0))
        for row in unitary:
            row[:] = [[re * factor, im * factor] for re, im in row]
    return "steps"


def _out_of_range(doc, draw):
    query = _query(doc, draw)
    query[draw(st.integers(0, len(query) - 1))] = draw(
        st.one_of(st.integers(max_value=0), st.integers(min_value=doc["arity"] + 1), st.floats())
    )
    return "steps"


def _bad_entry(doc, draw):
    """A measurement value other than 0 or 1, or a malformed pair or step."""
    where = draw(st.sampled_from(["measurement", "initial", "unitary", "step"]))
    if where == "measurement":
        not_a_bit = st.one_of(
            st.integers(max_value=-1), st.integers(min_value=2), st.floats(), st.text(max_size=2)
        )
        doc["measurement"][draw(st.integers(0, len(doc["measurement"]) - 1))] = draw(not_a_bit)
    elif where == "initial":
        doc["initial"][draw(st.integers(0, len(doc["initial"]) - 1))] = draw(_MALFORMED_ENTRY)
    elif where == "unitary":
        row = _pick(draw, _unitary(doc, draw))
        row[draw(st.integers(0, len(row) - 1))] = draw(_MALFORMED_ENTRY)
    else:
        both = st.fixed_dictionaries({"unitary": st.none(), "query": st.none()})
        doc["steps"][draw(st.integers(0, len(doc["steps"]) - 1))] = draw(
            st.one_of(_MALFORMED_ENTRY, both)
        )
    return where if where in FIELDS else "steps"


CORRUPTIONS = {
    "wrong type": _wrong_type,
    "missing field": _missing_field,
    "non-finite": _non_finite,
    "boolean": _boolean,
    "ragged": _ragged,
    "non-unitary": _non_unitary,
    "out-of-range variable": _out_of_range,
    "bad entry": _bad_entry,
}


def _valid_documents() -> list:
    """The documents the corruptions start from: the two built-ins, an AND and an OR composite."""
    from qqasim.algorithms import equality3_algorithm, pair_equality4_algorithm
    from qqasim.constructors import and_construct

    eq3, pe4 = equality3_algorithm(), pair_equality4_algorithm()
    algorithms = (eq3, pe4, and_construct(eq3, eq3).algorithm, or_construct(pe4, pe4).algorithm)
    return [to_document(a) for a in algorithms]


@pytest.fixture(scope="module")
def valid_documents():
    return _valid_documents()


class TestCorruptedDocumentProperty:
    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @given(st.integers(0, 3), st.data())
    def test_one_bad_field_raises_only_value_error(self, valid_documents, kind, which, data):
        doc = copy.deepcopy(valid_documents[which])
        field = CORRUPTIONS[kind](doc, data.draw)
        assert field in FIELDS
        with pytest.raises(ValueError) as caught, np.errstate(invalid="ignore", over="ignore"):
            from_document(doc)
        assert field in str(caught.value)

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @given(st.integers(0, 3), st.data())
    def test_same_error_as_the_pair_loop(self, valid_documents, kind, which, data):
        doc = copy.deepcopy(valid_documents[which])
        CORRUPTIONS[kind](doc, data.draw)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _decoded(from_document, doc) == _decoded(_pair_loop_from_document, doc)
