import json

import numpy as np
import pytest

from qqasim import serialize, simulator
from qqasim.constructors import or_construct
from qqasim.serialize import from_document, load, save, to_document
from qqasim.simulator import QueryGate, verify


class TestRoundTrip:
    def test_equality3_still_exact(self, tmp_path, eq3, f_eq3):
        path = tmp_path / "eq3.json"
        save(eq3, path, name="equality3")
        loaded = load(path)
        report = verify(loaded, f_eq3)
        assert report.exact and report.queries == 2

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
        original = simulator.is_unitary

        def counting(matrix, tol):
            checked.append(matrix)
            return original(matrix, tol)

        for module in (serialize, simulator):  # wherever a loader could look it up
            monkeypatch.setattr(module, "is_unitary", counting, raising=False)
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

    def test_json_is_plain_and_loadable(self, tmp_path, eq3):
        path = tmp_path / "a.json"
        save(eq3, path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["format_version"] == 1
        assert from_document(doc).arity == 3
