import contextlib
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from qqasim import catalog, cli, constructors, simulator
from qqasim.algorithms import BUILTINS
from qqasim.boolfun import (
    TruthTable,
    all_inputs,
    bit_string,
    combine_disjoint,
    named_function,
    table_to_csv,
)
from qqasim.cli import main, render_trace
from qqasim.constructors import ConstructionResult, or_construct
from qqasim.linalg import NORM_TOL
from qqasim.serialize import load, save
from qqasim.simulator import QQA, QueryGate, computed_function, run_all


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestVerifyCommand:
    def test_exact_builtin(self):
        result = invoke("verify", "--algorithm", "builtin:equality3", "--function", "equality3")
        assert result.exit_code == 0
        assert "exact, p = 1.000000, queries = 2" in result.output

    def test_expectation_flags_pass(self):
        result = invoke(
            "verify", "--algorithm", "builtin:pair_equality4",
            "--function", "pair_equality4", "--expect-exact", "--expect-p", "1.0",
        )
        assert result.exit_code == 0

    def test_wrong_function_fails(self, tmp_path):
        csv_path = tmp_path / "flipped.csv"
        bits = bytearray(named_function("equality3").bits)
        bits[5] = 1
        table_to_csv(TruthTable(3, bytes(bits)), csv_path)
        result = invoke("verify", "--algorithm", "builtin:equality3", "--function", str(csv_path))
        assert result.exit_code == 1
        assert "FAIL: worst-case success probability 0.000000 on input 101 is not" in result.output

    def test_expect_p_mismatch_fails(self):
        result = invoke(
            "verify", "--algorithm", "builtin:equality3",
            "--function", "equality3", "--expect-p", "0.75",
        )
        assert result.exit_code == 1
        assert "expected p = 0.750000, got 1.000000 on input " in result.output

    def test_nan_expect_p_fails(self):
        result = invoke(
            "verify", "--algorithm", "builtin:equality3",
            "--function", "equality3", "--expect-p", "nan",
        )
        assert result.exit_code == 1
        assert "FAIL: expected p = nan, got 1.000000 on input " in result.output

    def test_arity_mismatch_is_diagnosed(self):
        result = invoke("verify", "--algorithm", "builtin:equality3", "--function", "constant1:4")
        assert result.exit_code != 0
        assert "arity mismatch" in result.output

    def test_json_format(self):
        result = invoke(
            "--format", "json", "verify",
            "--algorithm", "builtin:equality3", "--function", "equality3",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["exact"] is True
        assert payload["queries"] == 2
        assert abs(payload["per_input"]["111"] - 1.0) <= 1e-9

    def test_constant_builtin(self):
        result = invoke("verify", "--algorithm", "builtin:constant1:3", "--function", "constant1:3")
        assert result.exit_code == 0
        assert "exact" in result.output


class TestTraceCommand:
    def test_single_row_matches_expected_evolution(self):
        result = invoke("trace", "--algorithm", "builtin:equality3", "--input", "110")
        assert result.exit_code == 0
        row = result.output.splitlines()[1]
        assert row.startswith("110 | ")
        assert "(-1/2, -1/2, -1/2, -1/2)" in row
        assert "(-1/2, 1/√2, 0, -1/2)" in row
        assert row.endswith("(0, 0, 0, -1) | 0")

    def test_row_011(self):
        result = invoke("trace", "--algorithm", "builtin:equality3", "--input", "011")
        row = result.output.splitlines()[1]
        assert "(-1/2, 0, 1/√2, 1/2)" in row
        assert "(0, -1, 0, 0)" in row
        assert row.endswith("| 0")

    def test_all_inputs_has_one_row_each(self):
        result = invoke("trace", "--algorithm", "builtin:pair_equality4", "--all-inputs")
        lines = result.output.splitlines()
        assert len(lines) == 1 + 16

    def test_bounded_error_probabilities_shown(self, tmp_path):
        out = tmp_path / "and.json"
        build = invoke(
            "construct", "--method", "and",
            "--inputs", "builtin:equality3,builtin:equality3", "--out", str(out),
        )
        assert build.exit_code == 0
        result = invoke("trace", "--algorithm", str(out), "--input", "111001")
        assert result.exit_code == 0
        assert "P(1)=0.250000" in result.output
        assert "P(0)=0.750000" in result.output

    def test_requires_an_input_choice(self):
        result = invoke("trace", "--algorithm", "builtin:equality3")
        assert result.exit_code != 0

    def test_bad_input_string(self):
        result = invoke("trace", "--algorithm", "builtin:equality3", "--input", "10")
        assert result.exit_code != 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("spec", ["builtin:equality3", "builtin:constant1:2"])
    def test_bad_input_fails_before_any_output(self, fmt, spec):
        # constant1:2 has no query step, so only the input check can catch the input.
        result = invoke("--format", fmt, "trace", "--algorithm", spec, "--input", "0x1")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "input of 0s and 1s, got '0x1'" in result.stderr

    def test_json_simulates_each_input_once(self, monkeypatch):
        built = []
        signs = simulator._input_signs
        monkeypatch.setattr(simulator, "_input_signs", lambda a, x: built.append(x) or signs(a, x))
        result = invoke(
            "--format", "json", "trace", "--algorithm", "builtin:equality3", "--all-inputs"
        )
        assert result.exit_code == 0
        assert built == [row["input"] for row in json.loads(result.output)]

    def test_constant_trace_is_trivial(self):
        result = invoke("trace", "--algorithm", "builtin:constant1", "--input", "0")
        assert result.exit_code == 0
        row = result.output.splitlines()[1]
        assert row == "0 | (1) | 1"

    def test_json_states(self):
        result = invoke(
            "--format", "json", "trace",
            "--algorithm", "builtin:equality3", "--input", "111",
        )
        rows = json.loads(result.output)
        assert rows[0]["input"] == "111"
        assert abs(rows[0]["probabilities"]["1"] - 1.0) <= 1e-9
        assert len(rows[0]["states"]) == 6


class TestTransformCommand:
    def test_invert_writes_complement_algorithm(self, tmp_path):
        out = tmp_path / "inverted.json"
        result = invoke(
            "transform", "--algorithm", "builtin:equality3",
            "--method", "invert", "--out", str(out),
        )
        assert result.exit_code == 0
        loaded = load(out)
        assert computed_function(loaded) == named_function("equality3").complement()

    def test_permute_outputs_moves_accepting_value(self, tmp_path):
        out = tmp_path / "moved.json"
        result = invoke(
            "transform", "--algorithm", "builtin:equality3",
            "--method", "permute-outputs", "--sigma", "3,2,1,4", "--out", str(out),
        )
        assert result.exit_code == 0
        assert computed_function(load(out)).accepting_inputs() == ["010", "101"]

    def test_permute_vars_keeps_symmetric_function(self, tmp_path):
        out = tmp_path / "permuted.json"
        result = invoke(
            "transform", "--algorithm", "builtin:equality3",
            "--method", "permute-vars", "--sigma", "2,3,1", "--out", str(out),
        )
        assert result.exit_code == 0
        assert computed_function(load(out)) == named_function("equality3")

    def test_sigma_validation(self):
        result = invoke(
            "transform", "--algorithm", "builtin:equality3",
            "--method", "permute-vars", "--sigma", "1,1,2", "--out", "x.json",
        )
        assert result.exit_code != 0
        assert "permutation" in result.output

    def test_non_integer_sigma(self, tmp_path):
        out = tmp_path / "x.json"
        result = invoke(
            "transform", "--algorithm", "builtin:equality3",
            "--method", "permute-vars", "--sigma", "1,x,2", "--out", str(out),
        )
        assert result.exit_code == 1
        assert result.output == "Error: --sigma must be comma-separated integers, got '1,x,2'\n"
        assert not out.exists()

    def test_permutation_needs_sigma(self, tmp_path):
        out = tmp_path / "x.json"
        result = invoke(
            "transform", "--algorithm", "builtin:equality3",
            "--method", "permute-vars", "--out", str(out),
        )
        assert result.exit_code == 1
        assert result.output == "Error: permute-vars needs --sigma\n"
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "inverted.json"
        result = invoke(
            "--format", "json", "transform", "--algorithm", "builtin:equality3",
            "--method", "invert", "--out", str(out),
        )
        assert result.exit_code == 0
        assert result.output == json.dumps({"method": "invert", "out": str(out)}) + "\n"
        assert computed_function(load(out)) == named_function("equality3").complement()

    def test_permute_outputs_error_names_an_uncertain_input(self, tmp_path):
        bounded = tmp_path / "and.json"
        invoke(
            "construct", "--method", "and",
            "--inputs", "builtin:equality3,builtin:equality3", "--out", str(bounded),
        )
        out = tmp_path / "moved.json"
        result = invoke(
            "transform", "--algorithm", str(bounded),
            "--method", "permute-outputs", "--sigma", "2,1,3,4,5,6,7,8", "--out", str(out),
        )
        assert result.exit_code == 1
        assert result.output == (
            "Error: output permutation requires all probability on one basis state for every "
            "input; no outcome is certain on input 000001\n"
        )
        assert not out.exists()

    def test_invert_error_names_the_worst_input(self, tmp_path):
        bounded = tmp_path / "and.json"
        invoke(
            "construct", "--method", "and",
            "--inputs", "builtin:equality3,builtin:equality3", "--out", str(bounded),
        )
        out = tmp_path / "inverted.json"
        result = invoke("transform", "--algorithm", str(bounded), "--method", "invert",
                        "--out", str(out))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "Error: output inversion requires an exact algorithm; "
            "worst-case p = 0.750000 on input 000001\n"
        )
        assert not out.exists()


class TestConstructCommand:
    def test_and_reports_probabilities(self, tmp_path):
        out = tmp_path / "and.json"
        result = invoke(
            "construct", "--method", "and",
            "--inputs", "builtin:equality3,builtin:equality3", "--out", str(out),
        )
        assert result.exit_code == 0
        assert "guaranteed p = 0.750000" in result.output
        assert "verified worst-case p = 0.750000" in result.output
        assert load(out).amplitudes == 8

    @pytest.mark.parametrize("row, printed", zip(
        constructors._COMBINERS, ["0.750000", "0.625000", "0.562500", "0.562500"]),
        ids=lambda value: getattr(value, "method", value))
    def test_each_method_from_builtin_inputs(self, tmp_path, row, printed):
        out = tmp_path / f"{row.method}.json"
        result = invoke(
            "construct", "--method", row.method,
            "--inputs", ",".join(["builtin:equality3"] * row.parts), "--out", str(out),
        )
        assert result.exit_code == 0
        assert f"{float(row.floor):.6f}" == printed
        assert f"guaranteed p = {printed}, verified worst-case p = {printed}" in result.output

    def test_method_choices_are_the_combiner_table(self):
        option = next(p for p in cli.construct_command.params if p.name == "method")
        choices = list(option.type.choices)
        assert choices == sorted(row.method for row in constructors._COMBINERS)
        assert choices == ["and", "maj-even4", "maj3", "or"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "and.json"
        result = invoke(
            "--format", "json", "construct", "--method", "and",
            "--inputs", "builtin:equality3,builtin:equality3", "--out", str(out),
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert list(payload) == [
            "method", "out", "guaranteed_p", "worst_case_p", "queries", "target_hex"
        ]
        assert payload["method"] == "and" and payload["out"] == str(out)
        assert payload["guaranteed_p"] == 0.75
        assert payload["worst_case_p"] == pytest.approx(0.75, abs=1e-9)
        assert payload["queries"] == 2
        assert payload["target_hex"] == "8100000000000081"
        assert result.output == json.dumps(payload, indent=1) + "\n"
        assert load(out).amplitudes == 8

    def test_wrong_input_count(self):
        result = invoke(
            "construct", "--method", "or", "--inputs", "builtin:equality3", "--out", "x.json"
        )
        assert result.exit_code != 0
        assert "exactly 2" in result.output

    def test_precondition_failure_is_one_line(self, tmp_path):
        result = invoke(
            "construct", "--method", "and",
            "--inputs", "builtin:pair_equality4,builtin:pair_equality4",
            "--out", str(tmp_path / "x.json"),
        )
        assert result.exit_code != 0
        assert "accepting amplitude" in result.output


#: ``qqasim catalog --set all`` and its ``--format json`` output, byte for byte.
CATALOG_TEXT = """\
set           size  arguments  queries  probability
qfunc3           8  3                2  1
qfunc4          24  4                2  1
and             16  6                2  3/4
or             256  6,7,8            2  5/8
maj_even4      256  12               2  9/16
majority3       64  9                2  9/16
distinct functions: 624
Total 832
"""

CATALOG_JSON = """\
{
 "sets": [
  {
   "name": "qfunc3",
   "size": 8,
   "arities": [
    3
   ],
   "queries": 2,
   "probability": 1.0,
   "applications": 48
  },
  {
   "name": "qfunc4",
   "size": 24,
   "arities": [
    4
   ],
   "queries": 2,
   "probability": 1.0,
   "applications": 192
  },
  {
   "name": "and",
   "size": 16,
   "arities": [
    6
   ],
   "queries": 2,
   "probability": 0.75,
   "applications": 16
  },
  {
   "name": "or",
   "size": 256,
   "arities": [
    6,
    7,
    8
   ],
   "queries": 2,
   "probability": 0.625,
   "applications": 256
  },
  {
   "name": "maj_even4",
   "size": 256,
   "arities": [
    12
   ],
   "queries": 2,
   "probability": 0.5625,
   "applications": 256
  },
  {
   "name": "majority3",
   "size": 64,
   "arities": [
    9
   ],
   "queries": 2,
   "probability": 0.5625,
   "applications": 64
  }
 ],
 "distinct_functions": 624,
 "total_applications": 832
}
"""


class TestCatalogCommand:
    def test_single_set_summary(self):
        result = invoke("catalog", "--set", "qfunc3")
        assert result.exit_code == 0
        assert "qfunc3" in result.output
        assert "8" in result.output

    def test_full_summary_ends_with_total(self):
        result = invoke("catalog", "--set", "all")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[-1] == "Total 832"
        assert "distinct functions: 624" in lines
        sizes = [line.split()[1] for line in lines[1:7]]
        assert sizes == ["8", "24", "16", "256", "256", "64"]

    def test_full_summary_text(self):
        result = invoke("catalog", "--set", "all")
        assert result.exit_code == 0
        assert result.output == CATALOG_TEXT

    def test_full_summary_json(self):
        result = invoke("--format", "json", "catalog", "--set", "all")
        assert result.exit_code == 0
        assert result.output == CATALOG_JSON

    def test_output_is_deterministic(self):
        first = invoke("catalog", "--set", "qfunc4")
        second = invoke("catalog", "--set", "qfunc4")
        assert first.output == second.output

    def test_export_csv(self, tmp_path):
        path = tmp_path / "qfunc3.csv"
        result = invoke("catalog", "--set", "qfunc3", "--export", str(path))
        assert result.exit_code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("set,arity,queries")
        assert len(lines) == 9

    def test_export_of_one_set_is_its_rows_of_the_full_csv(self, full_catalog, tmp_path):
        # ``or`` is built from both base sets, neither of which it exports.
        buffer = io.StringIO()
        catalog.export_csv(full_catalog, buffer)
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == CATALOG_CSV_SHA256
        header, *rows = buffer.getvalue().splitlines(keepends=True)
        path = tmp_path / "or.csv"
        result = invoke("catalog", "--set", "or", "--export", str(path))
        assert result.exit_code == 0
        expected = [header] + [row for row in rows if row.startswith("or,")]
        assert len(expected) == 1 + 256
        assert path.read_bytes().decode() == "".join(expected)


#: sha256 of ``qqasim catalog --set all --export``, as first recorded.
CATALOG_CSV_SHA256 = "e343079ffb64c6be6fd319b47afc39c0c8ac67dc5c7424fb8993903ca0b31361"


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)


def _traced_peak(args) -> tuple:
    """The ``tracemalloc`` peak of one in-process command, its exit code and
    the sha256 of its standard output, which is not kept."""
    out = _Digest()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            try:
                main.main(list(args), standalone_mode=False)
                code = 0
            except SystemExit as stop:
                code = stop.code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, code, out.sha256.hexdigest()


class TestMemory:
    """Peaks bounded by a few entries or one row, not by the whole output."""

    def test_catalog_holds_a_few_entries_at_a_time(self, tmp_path):
        # Holding every family until the end peaked at 9.49 MB; one family at a time, at 5.59 MB;
        # 32 candidates at a time, at 1.62 MB when run alone (one at a time: 1.09 MB).
        path = tmp_path / "catalog.csv"
        peak, code, _ = _traced_peak(["catalog", "--set", "all", "--export", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_CSV_SHA256
        assert peak < 2_000_000

    def test_json_trace_of_every_input_streams_its_rows(self, tmp_path):
        # 256 rows of 8 states of 16 amplitudes: 1.32 M characters, 4.73 MB traced in one text.
        document = str(tmp_path / "or.json")
        a = or_construct(BUILTINS["pair_equality4"](), BUILTINS["pair_equality4"]()).algorithm
        save(a, document)
        args = ["--format", "json", "trace", "--algorithm", document, "--all-inputs"]
        peak, code, digest = _traced_peak(args)
        assert code == 0
        assert digest == hashlib.sha256(_json_rows(a, all_inputs(a.arity)).encode()).hexdigest()
        assert peak < 1024 * 1024


def test_a_failed_catalog_run_leaves_no_csv(tmp_path, monkeypatch):
    def failing(*parts):
        raise RuntimeError("no or set")

    monkeypatch.setattr(constructors, "or_construct", failing)
    path = tmp_path / "catalog.csv"
    result = invoke("catalog", "--set", "all", "--export", str(path))
    assert result.exit_code == 1
    assert str(result.exception) == "no or set"
    assert not path.exists()


class TestSensitivityCommand:
    def test_named_function(self):
        result = invoke("sensitivity", "--function", "equality3")
        assert result.exit_code == 0
        assert "sensitivity = 3" in result.output
        assert "000" in result.output

    def test_csv_function(self, tmp_path):
        path = tmp_path / "f.csv"
        table_to_csv(named_function("pair_equality4"), path)
        result = invoke("sensitivity", "--function", str(path))
        assert "sensitivity = 4" in result.output

    def test_json(self):
        result = invoke("--format", "json", "sensitivity", "--function", "majority:3")
        payload = json.loads(result.output)
        assert payload["sensitivity"] == 2  # only flips across the 2-of-3 threshold matter


class TestErrorPaths:
    def test_unknown_builtin(self):
        result = invoke("verify", "--algorithm", "builtin:nope", "--function", "equality3")
        assert result.exit_code != 0
        assert "unknown builtin" in result.output

    def test_missing_algorithm_file(self):
        result = invoke("verify", "--algorithm", "/no/such/file.json", "--function", "equality3")
        assert result.exit_code != 0
        assert "no such algorithm file" in result.output

    def test_unknown_function(self):
        result = invoke("sensitivity", "--function", "no_such_function")
        assert result.exit_code != 0

    def test_negative_tolerance(self):
        result = invoke("--tolerance", "-1", "sensitivity", "--function", "equality3")
        assert result.exit_code != 0

    def test_nan_tolerance(self):
        result = invoke(
            "--tolerance", "nan", "verify", "--algorithm", "builtin:equality3",
            "--function", "equality3", "--expect-p", "0.3",
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "--tolerance must be positive" in result.stderr

    @pytest.mark.parametrize(
        "option, spec",
        [
            ("--algorithm", "builtin:equality3:7"),
            ("--algorithm", "builtin:pair_equality4:x"),
            ("--algorithm", "builtin:equality3:"),
            ("--function", "equality3:5"),
            ("--function", "pair_equality4:"),
        ],
    )
    def test_stray_builtin_parameter(self, option, spec):
        args = {"--algorithm": "builtin:equality3", "--function": "equality3", option: spec}
        result = invoke("verify", *[part for pair in args.items() for part in pair])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"Error: {spec}: {spec.split(':')[-2]} takes no parameter\n"

    @pytest.mark.parametrize(
        "option, spec, message",
        [
            ("--algorithm", "builtin:constant1:x",
             "builtin:constant1:x: invalid literal for int() with base 10: 'x'"),
            ("--function", "constant1", "constant1 needs an arity, e.g. constant1:3"),
            ("--function", "majority:4", "majority:4: majority needs an odd number of arguments"),
        ],
    )
    def test_bad_builtin_parameter(self, option, spec, message):
        args = {"--algorithm": "builtin:equality3", "--function": "equality3", option: spec}
        result = invoke("verify", *[part for pair in args.items() for part in pair])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"Error: {message}\n"

    @pytest.mark.parametrize("tol", ["0.5", "2", "inf"])
    def test_tolerance_must_be_below_one_half(self, tol):
        result = invoke("--tolerance", tol, "verify", "--algorithm", "builtin:equality3",
                        "--function", "majority:3")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "Error: --tolerance must be positive and below 1/2\n"

    def test_a_tolerance_just_below_one_half_is_taken(self):
        result = invoke("--tolerance", repr(float(np.nextafter(0.5, 0.0))), "verify",
                        "--algorithm", "builtin:equality3", "--function", "majority:3")
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "bounded-error, p = 0.000000, queries = 2",
            "FAIL: worst-case success probability 0.000000 on input 011 is not above 1/2"]

    def test_deeply_nested_json_is_one_line(self, tmp_path):
        document = tmp_path / "deep.json"
        document.write_text("[" * 200_000)
        result = invoke("verify", "--algorithm", str(document), "--function", "equality3")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"Error: {document}: JSON nested too deeply to decode\n"

    def test_an_over_long_csv_field_is_one_line(self, tmp_path):
        table = tmp_path / "long.csv"
        table.write_text("x" * 400_000 + "\n")
        result = invoke("sensitivity", "--function", str(table))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"Error: {table}: row 1: field larger than field limit (131072)\n"

    def test_integer_too_large_for_a_float(self, tmp_path):
        document = tmp_path / "huge.json"
        invoke("transform", "--algorithm", "builtin:equality3", "--method", "invert",
               "--out", str(document))
        doc = json.loads(document.read_text())
        doc["initial"][0] = [10**400, 0]
        document.write_text(json.dumps(doc))
        result = invoke("verify", "--algorithm", str(document), "--function", "equality3")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: {document}: initial[0]: int too large to convert to float\n"
        )

    @pytest.mark.parametrize("option", ["--algorithm", "--function"])
    def test_directory_as_input(self, tmp_path, option):
        args = {"--algorithm": "builtin:equality3", "--function": "equality3", option: str(tmp_path)}
        result = invoke("verify", *[part for pair in args.items() for part in pair])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"Error: cannot read {tmp_path}: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            ("construct", "--method", "and",
             "--inputs", "builtin:equality3,builtin:equality3", "--out", "{}/a.json"),
            ("transform", "--algorithm", "builtin:equality3", "--method", "invert",
             "--out", "{}/a.json"),
            ("catalog", "--set", "qfunc3", "--export", "{}/a.csv"),
        ],
    )
    def test_write_into_a_missing_directory(self, tmp_path, command):
        missing = tmp_path / "no" / "such" / "dir"
        args = [part.format(missing) for part in command]
        result = invoke(*args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"Error: cannot write {args[-1]}: No such file or directory\n"
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ("verify", "--algorithm", "{doc}", "--function", "constant1:1"),
            ("trace", "--algorithm", "{doc}", "--input", "0"),
            ("--format", "json", "trace", "--algorithm", "{doc}", "--all-inputs"),
            ("transform", "--algorithm", "{doc}", "--method", "invert", "--out", "{out}"),
            ("construct", "--method", "and", "--inputs", "{doc},{doc}", "--out", "{out}"),
        ],
    )
    def test_a_drifting_state_norm_is_one_line(self, tmp_path, command):
        # Each gate passes the unitarity check; thirty of them drift the norm past NORM_TOL.
        gate = (1 + 4.9e-11) * np.eye(2)
        a = QQA(1, 2, [1, 0], (QueryGate((0, None)),) + (gate,) * 30, (1, 0))
        with pytest.raises(RuntimeError, match="^state norm drifted to .* on input '0'$") as drift:
            run_all(a)
        document, out = tmp_path / "drift.json", tmp_path / "out.json"
        save(a, str(document))
        result = invoke(*[part.format(doc=document, out=out) for part in command])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == f"Error: {drift.value}\n"
        assert not out.exists()


#: sha256 of standard output, recorded before ``run``, ``trace`` and the batch
#: pass shared one kernel; any change to a number or its layout shows here.
_GOLDEN_STDOUT = {
    "trace-builtin": "3f1be507a1fe5bc2414e84f7f5e55354bd0b296c4b5ca03dffd1d07da7c8fd46",
    "trace-or": "66721568103e6ca90ee2163da6f70f9a1089ff04a1fd8f8376265c901708cb90",
    "verify-or": "989ee61043cfa62a8aea24eb9f7f5c12713691353df4bb0a5ce291d4ed9b48cc",
}
#: sha256 of the text traces and of the saved ``or`` document, recorded while
#: the loader still repeated the algorithm's checks and the text trace summed
#: each row's probabilities in a loop of its own.
_GOLDEN_TEXT = {
    "trace-builtin": "f37fe2476d1f15d5f5cb9ca705a80fe56b2ea731ab0d26c7d9ddd3caf23c172e",
    "trace-or": "3787bf64acacaa78940e3ea59483bf0989628125432263b6214ea2467460b024",
    "document": "6154b5c7a9be979603bb12d50b02f822a30cc87f646c1387898ab6799def8211",
}


def _pinned_or_document(tmp_path) -> str:
    document = str(tmp_path / "or.json")
    build = invoke(
        "construct", "--method", "or",
        "--inputs", "builtin:equality3,builtin:pair_equality4", "--out", document,
    )
    assert build.exit_code == 0
    return document


def test_json_output_is_pinned(tmp_path):
    document, csv_path = _pinned_or_document(tmp_path), str(tmp_path / "or.csv")
    target = combine_disjoint(named_function("equality3"), named_function("pair_equality4"), "or")
    table_to_csv(target, csv_path)
    commands = {
        "trace-builtin": ("trace", "--algorithm", "builtin:pair_equality4", "--all-inputs"),
        "trace-or": ("trace", "--algorithm", document, "--all-inputs"),
        "verify-or": ("verify", "--algorithm", document, "--function", csv_path),
    }
    for name, command in commands.items():
        result = invoke("--format", "json", *command)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == _GOLDEN_STDOUT[name], name


def _json_rows(a, inputs) -> str:
    """``trace --format json`` as ``json.dumps`` of rows built entry by entry."""
    rows = []
    for bits in inputs:
        t = simulator.trace(a, bits)
        rows.append({
            "input": bits,
            "states": [[[z.real, z.imag] for z in state] for state in t.states],
            "probabilities": {str(k): v for k, v in simulator._outcome(a, t.states[-1]).items()},
        })
    return json.dumps(rows, indent=1) + "\n"


@pytest.mark.parametrize("which", ["or", "complex", "no steps"])
def test_json_trace_is_json_dumps(tmp_path, which):
    """Every input of a saved composite, a complex algorithm, and one with no step."""
    if which == "or":
        document = _pinned_or_document(tmp_path)
    else:
        document = str(tmp_path / "a.json")
        eq3 = BUILTINS["equality3"]()
        if which == "complex":
            phase = np.diag(np.exp(1j * np.linspace(0.3, 2.1, 4)))
            a = simulator.QQA(3, 4, eq3.initial * 1j, eq3.steps[:2] + (phase,) + eq3.steps[2:],
                              eq3.measurement)
        else:
            a = simulator.QQA(0, 2, [complex(-0.0, 1.0), 0], (), (1, 0))
        save(a, document)
    a = load(document)
    result = invoke("--format", "json", "trace", "--algorithm", document, "--all-inputs")
    assert result.exit_code == 0
    assert result.stdout == _json_rows(a, all_inputs(a.arity))
    one = invoke("--format", "json", "trace", "--algorithm", document, "--input", "1" * a.arity)
    assert one.stdout == _json_rows(a, ["1" * a.arity])


@pytest.mark.parametrize("flags", [(), ("--expect-exact", "--expect-p", "0.9")])
def test_json_verify_is_json_dumps(tmp_path, flags):
    """A passing and a failing verify of a saved composite, every input listed."""
    document, csv_path = _pinned_or_document(tmp_path), str(tmp_path / "or.csv")
    target = combine_disjoint(named_function("equality3"), named_function("pair_equality4"), "or")
    table_to_csv(target, csv_path)
    result = invoke("--format", "json", "verify", "--algorithm", document,
                    "--function", csv_path, *flags)
    report = simulator.verify(load(document), target)
    worst = f"{report.worst_case_p:.6f} on input {report.witness}"
    failures = [f"expected exact, got worst-case p = {worst}",
                f"expected p = 0.900000, got {worst}"] if flags else []
    assert result.exit_code == (1 if flags else 0)
    assert result.stdout == json.dumps({
        "exact": report.exact,
        "worst_case_p": report.worst_case_p,
        "queries": report.queries,
        "per_input": report.per_input,
        "failures": failures,
    }, indent=1) + "\n"


def test_text_trace_and_saved_document_are_pinned(tmp_path):
    document = _pinned_or_document(tmp_path)
    with open(document, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == _GOLDEN_TEXT["document"]
    for name, spec in (("trace-builtin", "builtin:pair_equality4"), ("trace-or", document)):
        result = invoke("trace", "--algorithm", spec, "--all-inputs")
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == _GOLDEN_TEXT[name], name


class TestFormatting:
    def test_named_amplitudes(self):
        assert _label(0.0) == "0"
        assert _label(-0.5) == "-1/2"
        assert _label(2**-0.5) == "1/√2"
        assert _label(-(2**-1.5)) == "-1/(2√2)"
        assert _label(1.0) == "1"

    def test_fallback_to_float(self):
        assert _label(0.75) == "0.750000"
        assert _label(complex(0, 0.5)) == "0.000000+0.500000i"

    def test_state_rendering(self):
        assert _state_labels([0.5, -(2**-0.5), 0.0, 1.0], 1e-9) == "(1/2, -1/√2, 0, 1)"

    def test_a_large_tolerance_names_only_the_nearest_value(self):
        gaps = np.diff(sorted(value for value, _ in cli._NAMED_VALUES))
        assert gaps.min() == pytest.approx(0.5 - 2**-1.5)  # from 1/(2√2) to 1/2
        assert cli._LABEL_REACH == np.nextafter(gaps.min() / 2, 0.0)
        assert _label(0.75, 0.25) == "1/√2"  # within 0.25 of 1 too, but nearer 1/√2
        default = invoke("trace", "--algorithm", "builtin:equality3", "--input", "110")
        large = invoke("--tolerance", "0.3", "trace", "--algorithm", "builtin:equality3",
                       "--input", "110")
        assert "| (-1/2, -1/√2, 0, -1/2) |" in large.stdout  # -1/√2 was labelled -1 at 0.3
        assert large.stdout == default.stdout

    def test_bounds_are_inclusive_and_nan_never_passes(self):
        assert _label(0.5625, 0.0625) == "1/2"  # a tolerance below the reach is the bound
        assert _label(0.5625, np.nextafter(0.0625, 0.0)) == "0.562500"
        assert _label(cli._LABEL_REACH, 0.25) == "0"  # the reach bounds a larger tolerance
        assert _label(np.nextafter(cli._LABEL_REACH, 1.0), 0.25) == "0.073223"
        assert _label(complex(0.5, 0.25), 0.25) == "1/2"
        assert _label(complex(0.5, 0.25), np.nextafter(0.25, 0.0)) == "0.500000+0.250000i"
        assert _label(complex(0.0, np.nan)) == "0.000000+nani"
        assert _label(np.nan) == "nan"


def _label(value, tol=NORM_TOL):
    """One value as a trace cell labels it."""
    return cli._amplitude_labels([value], tol)[0]


def _state_labels(state, tol):
    """A state as a trace cell renders it, labelled by the whole-array pass."""
    return "(" + ", ".join(cli._amplitude_labels(state, tol)) + ")"


def _format_one(value, tol):
    """The labelling rule on one value in scalar arithmetic: the reference of the array pass."""
    value = complex(value)
    if not abs(value.imag) <= tol:  # NaN too
        return f"{value.real:.6f}{value.imag:+.6f}i"
    reach = min(tol, cli._LABEL_REACH)
    for magnitude, label in cli._NAMED_AMPLITUDES:
        if abs(value.real - magnitude) <= reach:
            return label
        if magnitude and abs(value.real + magnitude) <= reach:
            return "-" + label
    return f"{value.real:.6f}"


def _state_one_value_at_a_time(state, tol):
    """The reference for :func:`_state_labels`: every amplitude formatted on its own."""
    return "(" + ", ".join(_format_one(z, tol) for z in state) + ")"


def test_trace_rendering_equals_the_per_value_function(full_catalog):
    for function_set in full_catalog.values():
        for entry in function_set.entries:
            a = entry.algorithm
            for row in sorted({0, (1 << a.arity) // 3, (1 << a.arity) - 1}):
                t = simulator.trace(a, bit_string(row, a.arity))
                for state in t.states:
                    assert _state_labels(state, 1e-9) == _state_one_value_at_a_time(state, 1e-9)
                cells = render_trace(a, t).split(" | ")
                assert cells[1:-1] == [_state_one_value_at_a_time(s, 1e-9) for s in t.states[1:]]


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
def test_edge_values_equal_the_per_value_function(tol):
    reals = [np.nan, np.inf, -np.inf, -0.0, 0.75, 2.0]
    reach = min(tol, cli._LABEL_REACH)  # the bound of a large tol
    for magnitude, _ in cli._NAMED_AMPLITUDES:
        for edge in (magnitude + reach, magnitude - reach, -magnitude + reach, -magnitude - reach):
            reals += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
    reals += list(np.linspace(-1.5, 1.5, 61))  # between the named values at a large tol
    imaginary = [0.0, tol, -tol, np.nextafter(tol, 1.0), np.nan, np.inf, -np.inf]
    values = [complex(x, y) for x in reals for y in imaginary]
    for state in (reals, values, np.array(values)):
        assert _state_labels(state, tol) == _state_one_value_at_a_time(state, tol)


_BELOW = {tol: repr(float(np.nextafter(tol, 0.0))) for tol in (0.125, 0.25)}  # one float less


class TestToleranceBounds:
    """Each check of the CLI passes a value exactly ``--tolerance`` from its bound."""

    @pytest.mark.parametrize("tol, flags, lines", [
        ("0.25", ("--expect-exact",), [
            "exact, p = 0.750000, queries = 1",
            "FAIL: worst-case success probability 0.750000 on input 0 is not above 1/2"]),
        (_BELOW[0.25], ("--expect-exact",), [
            "bounded-error, p = 0.750000, queries = 1",
            "FAIL: expected exact, got worst-case p = 0.750000 on input 0"]),
        ("0.125", ("--expect-p", "0.875"), ["bounded-error, p = 0.750000, queries = 1"]),
        (_BELOW[0.125], ("--expect-p", "0.875"), [
            "bounded-error, p = 0.750000, queries = 1",
            "FAIL: expected p = 0.875000, got 0.750000 on input 0"]),
    ])
    def test_verify(self, tmp_path, quarters, tol, flags, lines):
        path = str(tmp_path / "a.json")
        save(quarters((1, 1, 1, 0)), path)  # P(1) = 3/4 on both inputs
        result = invoke("--tolerance", tol, "verify", "--algorithm", path,
                        "--function", "constant1:1", *flags)
        assert result.stdout.splitlines() == lines
        assert result.exit_code == (1 if len(lines) > 1 else 0)

    @pytest.mark.parametrize("measurement, tol, outcome", [
        ((1, 1, 1, 0), 0.25, "1"),
        ((1, 0, 0, 0), 0.25, "0"),
        ((1, 1, 1, 0), np.nextafter(0.25, 0.0), "P(0)=0.250000 P(1)=0.750000"),
        ((1, 0, 0, 0), np.nextafter(0.25, 0.0), "P(0)=0.750000 P(1)=0.250000"),
    ])
    def test_trace_outcome(self, quarters, measurement, tol, outcome):
        a = quarters(measurement)
        row = render_trace(a, simulator.trace(a, "0"), tol)
        assert row == f"0 | (1, 0, 0, 0) | (1/2, 1/2, 1/2, 1/2) | {outcome}"

    @pytest.mark.parametrize("tol, holds", [("0.25", True), (_BELOW[0.25], False)])
    def test_construct_and_the_catalog_share_the_floor_check(
            self, tmp_path, monkeypatch, quarters, tol, holds):
        """A combiner that promises 1 and delivers 3/4 meets its floor within 1/4 only."""
        promised = ConstructionResult(quarters((1, 1, 1, 0)), TruthTable(1, b"\x01\x01"), 1.0, 1)
        monkeypatch.setattr(constructors, "and_construct", lambda *parts: promised)  # both read it
        out = str(tmp_path / "and.json")
        result = invoke("--tolerance", tol, "construct", "--method", "and",
                        "--inputs", "builtin:equality3,builtin:equality3", "--out", out)
        lines = [f"and: guaranteed p = 1.000000, verified worst-case p = 0.750000, "
                 f"queries = 1; written to {out}"]
        if not holds:
            lines.append("FAIL: verified probability 0.750000 on input 0 fell below the guarantee")
        assert result.stdout.splitlines() == lines
        assert result.exit_code == (0 if holds else 1)
        monkeypatch.setattr(catalog, "NORM_TOL", float(tol))  # the catalog's fixed tolerance
        # The catalog holds a family to its row's floor, so the row promises 1 too.
        monkeypatch.setitem(catalog._COMBINED, "and", catalog._COMBINED["and"]._replace(floor=1))
        if holds:
            assert catalog.generate_set("and").guaranteed_p == 1.0
        else:
            with pytest.raises(RuntimeError, match=r"verified at 0.75 on input 0, below the 1.0 floor$"):
                catalog.generate_set("and")
